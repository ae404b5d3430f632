package core

import (
	"math"
	"math/rand"
	"testing"
)

// The §5.1 stability region, machine-checked. Let the true plant slope be
// g·α while the controller's model says α. With pole p = 1 − 2/Δ the error
// obeys e' = (1 − g(1−p)/N)·e, so a soft loop converges iff g < N·Δ. A
// hard loop steps with pole 0 past its virtual goal; for g > N that step
// overshoots into the safe region by g/N − 1, and the regular step then
// overshoots back if g(1−p)/N > 1. The two-period factor
// (g/N − 1)(g(1−p)/N − 1) stays below 1 iff g < N·(1 + Δ/2).

const (
	// stabilityWindow is the number of control periods per envelope window.
	stabilityWindow = 40
	// stabilityWindows is the number of windows a loop runs.
	stabilityWindows = 10
)

// stabilityLoop is one closed loop: a NewController with pole 1 − 2/Δ and
// an unbounded actuator against the plant s = g·alpha·c + base.
type stabilityLoop struct {
	alpha, base  float64
	delta        float64
	lambda, goal float64
	initial      float64
	hard         bool
	bound        Bound
	n            int
}

// boundary returns the loop gain error g where convergence ends: N times
// the tolerance of the controller's pole for the goal's kind.
func (l stabilityLoop) boundary() float64 {
	return float64(l.n) * GainTolerance(PoleFromDelta(l.delta), l.hard)
}

// envelopes runs the loop at gain error g and returns, per window, the
// largest |setpoint − s| seen in it.
func (l stabilityLoop) envelopes(t *testing.T, g float64) []float64 {
	t.Helper()
	ctrl, err := NewController(Model{Alpha: l.alpha, Intercept: l.base}, PoleFromDelta(l.delta), l.lambda,
		Goal{Target: l.goal, Hard: l.hard, Bound: l.bound},
		Options{Min: math.Inf(-1), Max: math.Inf(1), Initial: l.initial, Interaction: l.n})
	if err != nil {
		t.Fatal(err)
	}
	env := make([]float64, stabilityWindows)
	c := ctrl.Conf()
	for w := range env {
		for i := 0; i < stabilityWindow; i++ {
			s := g*l.alpha*c + l.base
			env[w] = math.Max(env[w], math.Abs(ctrl.VirtualTarget()-s))
			c = ctrl.Update(s)
		}
	}
	return env
}

// converging reports whether every window's error envelope is below the
// one before it, until the envelope reaches round-off (1e−9 of the first
// window's). No fixed tolerance: a loop that shrinks its error by 0.975 a
// period converges as surely as a deadbeat one.
func converging(env []float64) bool {
	floor := 1e-9 * env[0]
	for i := 1; i < len(env); i++ {
		if env[i] > floor && env[i] >= env[i-1] {
			return false
		}
	}
	return true
}

// growing reports whether every window's error envelope exceeds the one
// before it.
func growing(env []float64) bool {
	for i := 1; i < len(env); i++ {
		if env[i] <= env[i-1] {
			return false
		}
	}
	return true
}

// randomStabilityLoop draws a loop: α of either sign over four decades,
// Δ ∈ (2, 20], λ ∈ [0, 0.3), a goal of either bound, an intercept and a
// starting point on either side of it, and an interaction factor 1–3.
func randomStabilityLoop(rng *rand.Rand, hard bool) stabilityLoop {
	l := stabilityLoop{
		alpha:  math.Pow(10, -2+4*rng.Float64()),
		base:   1000 * (rng.Float64() - 0.5),
		delta:  2 + 1e-3 + 18*rng.Float64(),
		lambda: 0.3 * rng.Float64(),
		goal:   100 + 1000*rng.Float64(),
		hard:   hard,
		n:      1 + rng.Intn(3),
	}
	if rng.Intn(2) == 0 {
		l.alpha = -l.alpha
	}
	if rng.Intn(2) == 0 {
		l.bound = LowerBound
	}
	// Start with the plant anywhere from 0 to 2× the goal under the model.
	l.initial = (2*l.goal*rng.Float64() - l.base) / l.alpha
	return l
}

// TestStabilityRegionProperty: soft loops converge at g ≤ 0.95·N·Δ and not
// at g ≥ 1.05·N·Δ; hard loops converge at g ≤ 0.95·N·(1 + Δ/2) and not at
// g ≥ 1.05·N·(1 + Δ/2). Each drawn loop runs at both margins and at one
// random gain error on each side.
func TestStabilityRegionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 400; i++ {
		l := randomStabilityLoop(rng, i%2 == 1)
		b := l.boundary()
		for _, f := range []float64{0.95, 0.05 + 0.9*rng.Float64()} {
			if env := l.envelopes(t, f*b); !converging(env) {
				t.Errorf("%+v: g = %.3g (%.3g of the region's edge) does not converge; envelopes %.3g", l, f*b, f, env)
			}
		}
		for _, f := range []float64{1.05, 1.05 + 0.45*rng.Float64()} {
			if env := l.envelopes(t, f*b); !growing(env) {
				t.Errorf("%+v: g = %.3g (%.3g of the region's edge) does not diverge; envelopes %.3g", l, f*b, f, env)
			}
		}
	}
}

// TestHardLoopStabilityBoundary pins the points a closed-loop probe found
// on both sides of each region's edge: a hard loop stops converging well
// inside the soft loop's region.
func TestHardLoopStabilityBoundary(t *testing.T) {
	for _, tc := range []struct {
		delta, g    float64
		hard, stays bool
	}{
		{4, 3.9, false, true},
		{4, 4.1, false, false},
		{4, 2.9, true, true},
		{4, 3.1, true, false},
		{8, 7.9, false, true},
		{8, 4.9, true, true},
		{8, 5.1, true, false},
	} {
		l := stabilityLoop{alpha: 2, delta: tc.delta, lambda: 0.1, goal: 500, hard: tc.hard, n: 1}
		env := l.envelopes(t, tc.g)
		if got := converging(env); got != tc.stays {
			t.Errorf("Δ=%v g=%v hard=%v: converging = %v, want %v; envelopes %.3g", tc.delta, tc.g, tc.hard, got, tc.stays, env)
		}
		if !tc.stays && !growing(env) {
			t.Errorf("Δ=%v g=%v hard=%v: error envelope does not grow: %.3g", tc.delta, tc.g, tc.hard, env)
		}
	}
}

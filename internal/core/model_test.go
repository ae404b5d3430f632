package core

import (
	"math"
	"math/rand"
	"testing"
)

func mkProfile(settings []float64, plant func(c float64) []float64) Profile {
	p := Profile{}
	for _, s := range settings {
		p.Settings = append(p.Settings, SettingProfile{Setting: s, Samples: plant(s)})
	}
	return p
}

func TestProfileFitLinearPlant(t *testing.T) {
	// memory = 2.5·queue + 100, noiseless.
	p := mkProfile([]float64{40, 80, 120, 160}, func(c float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = 2.5*c + 100
		}
		return out
	})
	m, err := p.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Alpha-2.5) > 1e-9 || math.Abs(m.Intercept-100) > 1e-9 {
		t.Errorf("model = %v, want α=2.5 intercept=100", m)
	}
	if m.R2 < 0.999 {
		t.Errorf("R² = %v, want ≈1", m.R2)
	}
	if got := m.Predict(200); math.Abs(got-600) > 1e-9 {
		t.Errorf("Predict(200) = %v, want 600", got)
	}
}

func TestProfileFitErrors(t *testing.T) {
	if _, err := (Profile{}).Fit(); err == nil {
		t.Error("expected error on empty profile")
	}
	// Constant performance ⇒ zero slope ⇒ degenerate model.
	p := mkProfile([]float64{1, 2, 3}, func(float64) []float64 { return []float64{5, 5} })
	if _, err := p.Fit(); err == nil {
		t.Error("expected degenerate-model error for flat plant")
	}
}

func TestLambdaStableVsUnstable(t *testing.T) {
	stable := mkProfile([]float64{10, 20}, func(c float64) []float64 {
		return []float64{c, c, c, c}
	})
	if got := stable.Lambda(); got != 0 {
		t.Errorf("λ of deterministic plant = %v, want 0", got)
	}
	// Per-setting CoV = 0.2 at both settings.
	unstable := mkProfile([]float64{10, 20}, func(c float64) []float64 {
		return []float64{0.8 * c, 1.2 * c, 0.8 * c, 1.2 * c}
	})
	if got := unstable.Lambda(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("λ = %v, want 0.2", got)
	}
	if got := (Profile{}).Lambda(); got != 0 {
		t.Errorf("λ of empty profile = %v, want 0", got)
	}
}

func TestDeltaAndPole(t *testing.T) {
	// Deterministic plant: Δ = 1 (no model-error term) ⇒ pole 0 (deadbeat).
	det := mkProfile([]float64{10, 20}, func(c float64) []float64 {
		return []float64{c, c, c}
	})
	if got := det.Delta(); got != 1 {
		t.Errorf("Δ of deterministic plant = %v, want 1", got)
	}
	if got := PoleFromDelta(det.Delta()); got != 0 {
		t.Errorf("pole = %v, want 0", got)
	}

	// Noisy plant ⇒ Δ > 2 ⇒ conservative pole in (0,1).
	noisy := mkProfile([]float64{10}, func(c float64) []float64 {
		return []float64{c * 0.5, c * 1.5, c * 0.5, c * 1.5}
	})
	d := noisy.Delta()
	if d <= 2 {
		t.Fatalf("Δ = %v, want > 2 for a noisy plant", d)
	}
	p := PoleFromDelta(d)
	if p <= 0 || p >= 1 {
		t.Errorf("pole = %v, want in (0,1)", p)
	}
}

func TestPoleFromDeltaBoundary(t *testing.T) {
	cases := []struct {
		delta float64
		want  float64
	}{
		{1, 0},
		{2, 0},
		{4, 0.5},
		{8, 0.75},
	}
	for _, c := range cases {
		if got := PoleFromDelta(c.delta); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PoleFromDelta(%v) = %v, want %v", c.delta, got, c.want)
		}
	}
}

// TestGainTolerance: at the pole PoleFromDelta picks, a soft loop tolerates
// a gain error up to Δ and a hard loop up to 1 + Δ/2, and neither tolerates
// less than 2 (the deadbeat pole of Δ ≤ 2).
func TestGainTolerance(t *testing.T) {
	cases := []struct {
		delta      float64
		soft, hard float64
	}{
		{1, 2, 2},
		{2, 2, 2},
		{4, 4, 3},
		{8, 8, 5},
	}
	for _, c := range cases {
		p := PoleFromDelta(c.delta)
		if got := GainTolerance(p, false); math.Abs(got-c.soft) > 1e-12 {
			t.Errorf("Δ = %v: soft tolerance %v, want %v", c.delta, got, c.soft)
		}
		if got := GainTolerance(p, true); math.Abs(got-c.hard) > 1e-12 {
			t.Errorf("Δ = %v: hard tolerance %v, want %v", c.delta, got, c.hard)
		}
	}
}

func TestVirtualGoal(t *testing.T) {
	if got := VirtualGoal(1000, 0.1, UpperBound); math.Abs(got-900) > 1e-9 {
		t.Errorf("upper virtual goal = %v, want 900", got)
	}
	if got := VirtualGoal(1000, 0.1, LowerBound); math.Abs(got-1100) > 1e-9 {
		t.Errorf("lower virtual goal = %v, want 1100", got)
	}
	// λ clamped so the margin never exceeds 95%.
	if got := VirtualGoal(1000, 2.0, UpperBound); math.Abs(got-50) > 1e-9 {
		t.Errorf("clamped virtual goal = %v, want 50", got)
	}
	if got := VirtualGoal(1000, -1, UpperBound); got != 1000 {
		t.Errorf("negative λ clamped: got %v, want 1000", got)
	}
}

func TestCollector(t *testing.T) {
	col := NewCollector()
	col.Record(10, 1)
	col.Record(20, 2)
	col.Record(10, 3)
	if col.Len() != 3 {
		t.Fatalf("Len = %d, want 3", col.Len())
	}
	p := col.Profile()
	if len(p.Settings) != 2 {
		t.Fatalf("settings = %d, want 2", len(p.Settings))
	}
	if p.Settings[0].Setting != 10 || len(p.Settings[0].Samples) != 2 {
		t.Errorf("setting[0] = %+v", p.Settings[0])
	}
	if p.Settings[1].Setting != 20 || p.Settings[1].Samples[0] != 2 {
		t.Errorf("setting[1] = %+v", p.Settings[1])
	}
	if p.TotalSamples() != 3 {
		t.Errorf("TotalSamples = %d, want 3", p.TotalSamples())
	}
	col.Reset()
	if col.Len() != 0 {
		t.Errorf("after Reset Len = %d", col.Len())
	}
}

func TestPlanRun(t *testing.T) {
	plan := DefaultPlan(0, 30, 4)
	if len(plan.Settings) != 4 || plan.Settings[0] != 0 || plan.Settings[3] != 30 {
		t.Fatalf("plan settings = %v", plan.Settings)
	}
	calls := 0
	p, err := plan.Run(func(setting float64) (float64, error) {
		calls++
		return 2 * setting, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 40 {
		t.Errorf("measure calls = %d, want 40 (4 settings × 10 samples)", calls)
	}
	m, err := p.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Alpha-2) > 1e-9 {
		t.Errorf("α = %v, want 2", m.Alpha)
	}
}

func TestPlanRunPropagatesError(t *testing.T) {
	plan := Plan{Settings: []float64{1}, SamplesPerStep: 1}
	if _, err := plan.Run(func(float64) (float64, error) {
		return 0, ErrEmptyProfile
	}); err == nil {
		t.Error("expected measure error to propagate")
	}
	if _, err := (Plan{}).Run(nil); err == nil {
		t.Error("expected error on empty plan")
	}
}

func TestDefaultPlanMinimumSettings(t *testing.T) {
	plan := DefaultPlan(0, 10, 1)
	if len(plan.Settings) != 2 {
		t.Errorf("settings = %v, want 2 entries", plan.Settings)
	}
}

// TestVirtualGoalSafeSideProbability verifies the §5.6 footnote numerically:
// placing the virtual goal one λ-width (≈1σ when operating near the goal's
// scale) below a no-overshoot goal leaves ≈84% of steady-state samples on
// the safe side under Gaussian disturbance (one-sided 1σ bound).
func TestVirtualGoalSafeSideProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	const (
		alpha      = 2.0
		goal       = 1000.0
		noiseSigma = 60.0
	)
	plant := func(c float64) float64 { return alpha*c + rng.NormFloat64()*noiseSigma }

	// Profile exactly as SmartConf would: 4 settings × 10 samples near the
	// operating region so mᵢ ≈ goal and λ ≈ σ/goal.
	col := NewCollector()
	for _, s := range []float64{380, 430, 480, 530} {
		for i := 0; i < 10; i++ {
			col.Record(s, plant(s))
		}
	}
	profile := col.Profile()
	ctrl, err := Synthesize(profile, Goal{Target: goal, Hard: true}, Options{Initial: 0, Max: 1e9})
	if err != nil {
		t.Fatal(err)
	}

	// Drive to steady state, then measure the overshoot rate.
	c := ctrl.Conf()
	for i := 0; i < 500; i++ {
		c = ctrl.Update(plant(c))
	}
	overshoots := 0
	const samples = 20000
	for i := 0; i < samples; i++ {
		s := plant(c)
		if s > goal {
			overshoots++
		}
		c = ctrl.Update(s)
	}
	safe := 1 - float64(overshoots)/samples
	// The paper's analytic bound is 84% (one-sided 1σ), derived as if the
	// steady state sat exactly at the virtual goal with only the profiled
	// measurement noise. The CLOSED LOOP adds variance — the controller
	// chases each noise sample, so the output wiggles more than the raw
	// noise — which shaves a few points off. We measure ≈0.80 here and
	// assert a band around it; the finding (the analytic bound is mildly
	// optimistic) is documented in EXPERIMENTS.md.
	if safe < 0.75 {
		t.Errorf("safe-side rate %.3f far below the paper's 84%% claim", safe)
	}
	if safe > 0.995 {
		t.Errorf("safe-side rate %.3f implausibly high — is the noise wired in?", safe)
	}
	t.Logf("safe-side rate %.3f vs the paper's analytic 84%% (λ=%.3f, virtual goal %.0f)",
		safe, profile.Lambda(), ctrl.VirtualTarget())
}

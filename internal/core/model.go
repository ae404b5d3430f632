// Package core implements the paper's primary contribution: automatic
// synthesis of per-configuration feedback controllers for
// performance-sensitive configurations (PerfConfs).
//
// The design follows §5 of "Understanding and Auto-Adjusting
// Performance-Sensitive Configurations" (ASPLOS'18):
//
//   - Eq. 1: a first-order linear plant model s_k = α·c_{k−1} fitted from
//     profiling samples (Model, Fit).
//   - Eq. 2: the deadbeat-family update law
//     c_{k+1} = c_k + (1−p)/α · e_{k+1} (Controller.Update).
//   - §5.1: the pole p is derived automatically from profiling variability
//     (Profile.Delta, PoleFromDelta) so users never tune control parameters.
//   - §5.2: hard goals get a virtual goal s_v = (1−λ)·s and context-aware
//     two-pole switching (regular pole in the safe region, pole 0 beyond the
//     virtual goal).
//   - §5.4: configurations sharing a super-hard goal split the error through
//     an interaction factor N.
//
// The package is deliberately free of I/O and clocks: it is pure control
// mathematics, driven by whoever owns the sensor (the public smartconf
// package, the simulator, or a test).
package core

import (
	"errors"
	"fmt"
	"math"

	"smartconf/internal/stat"
)

// Model is the fitted plant model of Eq. 1: performance = Alpha·conf
// (+ Intercept). Only Alpha enters the update law — the incremental form of
// Eq. 2 cancels constant offsets — but the intercept is kept for prediction
// and diagnostics.
type Model struct {
	Alpha     float64
	Intercept float64
	R2        float64
}

// ErrDegenerateModel is returned when profiling data cannot identify a
// usable plant (zero or non-finite slope).
var ErrDegenerateModel = errors.New("core: degenerate plant model (zero or non-finite slope)")

// Valid reports whether the model can drive a controller.
func (m Model) Valid() bool {
	return m.Alpha != 0 && !math.IsNaN(m.Alpha) && !math.IsInf(m.Alpha, 0)
}

// Predict evaluates the model at configuration value c.
func (m Model) Predict(c float64) float64 {
	return m.Alpha*c + m.Intercept
}

func (m Model) String() string {
	return fmt.Sprintf("s = %.6g·c %+.6g (R²=%.3f)", m.Alpha, m.Intercept, m.R2)
}

// SettingProfile is the set of performance measurements collected while the
// configuration was pinned at one sampled value. The paper's default
// profiling plan collects 10 measurements at each of 4 settings.
type SettingProfile struct {
	Setting float64
	Samples []float64
}

// Profile is a complete profiling run: one SettingProfile per sampled
// configuration value.
type Profile struct {
	Settings []SettingProfile
}

// ErrEmptyProfile is returned when synthesis is attempted with no samples.
var ErrEmptyProfile = errors.New("core: empty profile")

// TotalSamples reports the number of individual measurements in the profile.
func (p Profile) TotalSamples() int {
	n := 0
	for _, s := range p.Settings {
		n += len(s.Samples)
	}
	return n
}

// Fit performs least squares of all (setting, sample) pairs, yielding the
// Eq. 1 plant model. An intercept is fitted so plants with a constant base
// component (e.g. memory = α·queueSize + base) are modelled faithfully.
func (p Profile) Fit() (Model, error) {
	var xs, ys []float64
	for _, s := range p.Settings {
		for _, y := range s.Samples {
			xs = append(xs, s.Setting)
			ys = append(ys, y)
		}
	}
	if len(xs) == 0 {
		return Model{}, ErrEmptyProfile
	}
	fit, err := stat.LinearFit(xs, ys)
	if err != nil {
		return Model{}, fmt.Errorf("core: fitting plant model: %w", err)
	}
	m := Model{Alpha: fit.Slope, Intercept: fit.Intercept, R2: fit.R2}
	if !m.Valid() {
		return m, ErrDegenerateModel
	}
	return m, nil
}

// Lambda is the system-stability coefficient of §5.2:
//
//	λ = (1/N) · Σ σᵢ/mᵢ
//
// the coefficient of variation of the measurements averaged over the N
// profiled settings. Larger λ ⇒ less stable plant ⇒ virtual goal placed
// further from the real constraint.
func (p Profile) Lambda() float64 {
	if len(p.Settings) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for _, s := range p.Settings {
		if len(s.Samples) == 0 {
			continue
		}
		sum += stat.CoV(s.Samples)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Delta is the model-error tolerance of §5.1:
//
//	Δ = 1 + (1/N) · Σ 3σᵢ/mᵢ′
//
// where mᵢ′ is the mean of the measurements under setting i taken w.r.t. the
// minimum performance observed under that setting (mᵢ′ = mᵢ − minᵢ). When
// the floor-relative mean vanishes (near-deterministic samples) the term
// degrades gracefully: zero σ contributes zero; otherwise the raw mean is
// used as the denominator.
func (p Profile) Delta() float64 {
	if len(p.Settings) == 0 {
		return 1
	}
	var sum float64
	n := 0
	for _, s := range p.Settings {
		if len(s.Samples) == 0 {
			continue
		}
		sigma := stat.StdDev(s.Samples)
		mean := stat.Mean(s.Samples)
		floorMean := mean - stat.Min(s.Samples)
		var term float64
		switch {
		case sigma == 0:
			term = 0
		case floorMean > 1e-12:
			term = 3 * sigma / floorMean
		case math.Abs(mean) > 1e-12:
			term = 3 * sigma / math.Abs(mean)
		default:
			term = 0
		}
		sum += term
		n++
	}
	if n == 0 {
		return 1
	}
	return 1 + sum/float64(n)
}

// PoleFromDelta applies the §5.1 rule: p = 1 − 2/Δ when Δ > 2, else 0.
// The result is always in [0, 1), guaranteeing closed-loop stability as long
// as the true model error stays within Δ.
func PoleFromDelta(delta float64) float64 {
	if delta > 2 {
		return 1 - 2/delta
	}
	return 0
}

// GainTolerance is the largest plant-gain error a loop with the given pole
// converges under, the true slope being g·α while the model says α:
// 2/(1−p) for a soft goal, and 1 + 1/(1−p) for a hard one, whose pole-0
// step past the virtual goal overshoots by g−1 (DESIGN.md §3). At the pole
// PoleFromDelta picks for Δ > 2 these are Δ and 1 + Δ/2. Both are at least
// 2 for every pole in [0, 1): the paper's tolerance of any model error
// below 2×.
func GainTolerance(pole float64, hard bool) float64 {
	if hard {
		return 1 + 1/(1-pole)
	}
	return 2 / (1 - pole)
}

// VirtualGoal applies the §5.2 rule s_v = (1−λ)·goal for upper-bound goals
// and the mirror form (1+λ)·goal for lower-bound goals, clamping λ into
// [0, 0.95] so a wildly unstable profile cannot produce a degenerate (zero
// or negative) safety margin.
func VirtualGoal(goal, lambda float64, bound Bound) float64 {
	if lambda < 0 {
		lambda = 0
	}
	if lambda > 0.95 {
		lambda = 0.95
	}
	if bound == LowerBound {
		return (1 + lambda) * goal
	}
	return (1 - lambda) * goal
}

package experiments

import (
	"fmt"
	"strings"

	"smartconf/internal/experiments/engine"
)

// AIMD is the classic systems heuristic (additive increase, multiplicative
// decrease — TCP's congestion control) applied to the HB3813 knob: grow the
// queue bound steadily while memory is under the goal, slash it when memory
// crosses. The paper's related-work section cites empirical comparisons
// [Maggio et al., TAAS'12] showing control-theoretic solutions beat such
// heuristics at meeting constraints; this baseline lets the repository show
// the same thing.
//
// AIMD has two parameters with no synthesis procedure — the operator guesses
// them, which is exactly the burden SmartConf removes.
type AIMD struct {
	// Increase is the additive step while the metric is under the goal.
	Increase float64
	// Decrease is the multiplicative factor applied on violation (< 1).
	Decrease float64
	// Goal is the metric bound.
	Goal float64
	// Min and Max clamp the knob.
	Min, Max float64

	value float64
}

// Update applies one AIMD step and returns the new knob value.
func (a *AIMD) Update(measured float64) float64 {
	if measured <= a.Goal {
		a.value += a.Increase
	} else {
		a.value *= a.Decrease
	}
	if a.value < a.Min {
		a.value = a.Min
	}
	if a.value > a.Max {
		a.value = a.Max
	}
	return a.value
}

// BackendComparison holds SmartConf vs AIMD on the same scenario.
type BackendComparison struct {
	SmartConf Result
	// AIMD variants: a cautious and an aggressive parameterization — there
	// is no principled way to pick, which is the point.
	AIMDCautious   Result
	AIMDAggressive Result
}

// AblationBackendAIMD runs the comparison on the HB3813 scenario. The
// SmartConf arm reuses the Figure 5 run through the cache; the AIMD arms are
// memoized under their parameters and all three fan out together.
func AblationBackendAIMD() BackendComparison {
	type arm struct{ inc, dec float64 }
	arms := []arm{{0, 0}, {0.05, 0.5}, {1.0, 0.9}} // {0,0} marks the SmartConf arm
	runs := engine.MapSlice(arms, func(a arm) Result {
		if a.inc == 0 {
			return runCached(HB3813Scenario(), SmartConf())
		}
		return memoResult("HB3813", fmt.Sprintf("aimd inc=%g dec=%g", a.inc, a.dec),
			"ablation-aimd", 0, func() Result {
				ctl := &AIMD{
					Increase: a.inc,
					Decrease: a.dec,
					Goal:     float64(rpcMemoryGoal),
					Min:      0, Max: 5000,
				}
				return hb3813Figure().evaluate(SmartConf(), func(pl *hb3813Plant) {
					pl.sv.BeforeAdmit = func() { pl.sv.SetMaxQueue(int(ctl.Update(float64(pl.heap.Used())))) }
				})
			})
	})
	return BackendComparison{
		SmartConf:      runs[0],
		AIMDCautious:   runs[1],
		AIMDAggressive: runs[2],
	}
}

// RenderBackendComparison formats the comparison.
func RenderBackendComparison(c BackendComparison) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Controller-vs-heuristic comparison (HB3813): SmartConf vs hand-tuned AIMD")
	line := func(name string, r Result) {
		status := "ok"
		if !r.ConstraintMet {
			status = fmt.Sprintf("X %s at %.0fs", r.Violation, r.ViolatedAt.Seconds())
		}
		fmt.Fprintf(&b, "  %-24s %-28s %8.2f ops/s\n", name, status, r.Tradeoff)
	}
	line("SmartConf (synthesized)", c.SmartConf)
	line("AIMD +0.05/×0.5", c.AIMDCautious)
	line("AIMD +1.0/×0.9", c.AIMDAggressive)
	fmt.Fprintln(&b, "  (AIMD parameters are guesses — no synthesis procedure exists for them)")
	return b.String()
}

package experiments

import (
	"fmt"
	"strings"
	"time"

	"smartconf"
	"smartconf/internal/core"
	"smartconf/internal/experiments/engine"
)

// Ablations beyond the paper's Figure 7, quantifying the design choices
// DESIGN.md calls out: the automatically derived pole, the λ-derived virtual
// goal margin, the §5.4 interaction factor, and the §7 adaptive-model
// extension. All run on the HB3813 substrate (the best-instrumented plant).

// PoleAblationRow is one entry of the pole-sensitivity sweep.
type PoleAblationRow struct {
	Pole          float64
	Auto          bool // the §5.1 automatically derived pole
	ConstraintMet bool
	Throughput    float64
	// Convergence is when the knob first reached 80% of its phase-1 working
	// level — the responsiveness cost of a conservative pole.
	Convergence time.Duration
}

// AblationPoles sweeps the regular pole across [0, 0.99] on HB3813,
// including the automatically derived value, showing the §5.1 rule lands in
// the stable-and-responsive region without user tuning.
func AblationPoles() []PoleAblationRow {
	profile := ProfileHB3813()
	model := mustSynth(profile.Fit())
	lambda := profile.Lambda()
	auto := core.PoleFromDelta(profile.Delta())
	poles := []float64{0, 0.25, 0.5, auto, 0.75, 0.9, 0.99}
	return engine.MapSlice(poles, func(pole float64) PoleAblationRow {
		r := runAblationCore(model, pole, lambda)
		knob, _ := r.SeriesByName("max.queue.size")
		working := knob.At(300 * time.Second) // settled phase-1 level
		var conv time.Duration
		for _, p := range knob.Points {
			if p.V >= 0.8*working && working > 0 {
				conv = p.T
				break
			}
		}
		return PoleAblationRow{
			Pole:          pole,
			Auto:          pole == auto,
			ConstraintMet: r.ConstraintMet,
			Throughput:    r.Tradeoff,
			Convergence:   conv,
		}
	})
}

// runAblationCore memoizes the core-controller evaluations the pole and
// margin sweeps share: both include the automatically derived (pole, λ)
// point, which therefore simulates once.
func runAblationCore(model core.Model, pole, lambda float64) Result {
	return memoResult("HB3813", fmt.Sprintf("pole=%g lambda=%g", pole, lambda),
		"ablation-core", 0, func() Result {
			ctrl := mustSynth(core.NewController(model, pole, lambda,
				core.Goal{Metric: "memory", Target: float64(rpcMemoryGoal), Hard: true},
				core.Options{Min: 0, Max: 1e9}))
			// Full SmartConf semantics: the §5.3 update from the deputy.
			return hb3813Figure().evaluate(SmartConf(), func(pl *hb3813Plant) {
				pl.sv.BeforeAdmit = func() {
					ctrl.SetConf(float64(pl.sv.QueueLen()))
					pl.sv.SetMaxQueue(int(ctrl.Update(float64(pl.heap.Used()))))
				}
			})
		})
}

// RenderAblationPoles formats the sweep.
func RenderAblationPoles(rows []PoleAblationRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Pole ablation (HB3813): responsiveness and safety across the pole range")
	fmt.Fprintf(&b, "%8s %6s %8s %12s %14s\n", "pole", "auto", "OK?", "ops/s", "convergence")
	for _, r := range rows {
		mark := ""
		if r.Auto {
			mark = "←§5.1"
		}
		ok := "ok"
		if !r.ConstraintMet {
			ok = "X"
		}
		fmt.Fprintf(&b, "%8.3f %6s %8s %12.2f %13.0fs\n",
			r.Pole, mark, ok, r.Throughput, r.Convergence.Seconds())
	}
	return b.String()
}

// MarginAblationRow is one entry of the virtual-goal-margin sweep.
type MarginAblationRow struct {
	Lambda        float64
	Auto          bool
	VirtualGoalMB float64
	ConstraintMet bool
	Throughput    float64
}

// AblationVirtualGoalMargin sweeps the λ that places the virtual goal,
// including the automatically measured value: zero margin risks the
// constraint; excess margin buys nothing and costs throughput.
func AblationVirtualGoalMargin() []MarginAblationRow {
	profile := ProfileHB3813()
	model := mustSynth(profile.Fit())
	autoLambda := profile.Lambda()
	pole := core.PoleFromDelta(profile.Delta())
	lambdas := []float64{0, 0.02, autoLambda, 0.15, 0.3}
	return engine.MapSlice(lambdas, func(lambda float64) MarginAblationRow {
		// The virtual target is fixed at construction ((1-λ)·goal), so a
		// fresh controller reports it even when the run itself is a cache hit.
		ctrl := mustSynth(core.NewController(model, pole, lambda,
			core.Goal{Metric: "memory", Target: float64(rpcMemoryGoal), Hard: true},
			core.Options{Min: 0, Max: 1e9}))
		r := runAblationCore(model, pole, lambda)
		return MarginAblationRow{
			Lambda:        lambda,
			Auto:          lambda == autoLambda,
			VirtualGoalMB: ctrl.VirtualTarget() / float64(mb),
			ConstraintMet: r.ConstraintMet,
			Throughput:    r.Tradeoff,
		}
	})
}

// RenderAblationMargins formats the sweep.
func RenderAblationMargins(rows []MarginAblationRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Virtual-goal-margin ablation (HB3813): safety vs utilization across λ")
	fmt.Fprintf(&b, "%8s %6s %14s %8s %12s\n", "λ", "auto", "virtual goal", "OK?", "ops/s")
	for _, r := range rows {
		mark := ""
		if r.Auto {
			mark = "←§5.2"
		}
		ok := "ok"
		if !r.ConstraintMet {
			ok = "X"
		}
		fmt.Fprintf(&b, "%8.3f %6s %12.0fMB %8s %12.2f\n",
			r.Lambda, mark, r.VirtualGoalMB, ok, r.Throughput)
	}
	return b.String()
}

// InteractionAblation compares the §5.4 interaction factor against naive
// composition (both controllers claiming the full error) on the Figure 8
// workload.
type InteractionAblation struct {
	WithFactor    Figure8
	WithoutFactor Figure8
	// ChurnWith/Without measure actuation churn — the summed absolute
	// movement of both knobs (items + MB-equivalents) — the §5.6 stability
	// cost of uncoordinated controllers overcorrecting in tandem.
	ChurnWith    float64
	ChurnWithout float64
}

// knobChurn sums |Δ| over a knob series, in the given unit.
func knobChurn(s Series, unit float64) float64 {
	var churn float64
	for i := 1; i < len(s.Points); i++ {
		d := (s.Points[i].V - s.Points[i-1].V) / unit
		if d < 0 {
			d = -d
		}
		churn += d
	}
	return churn
}

// AblationInteractionFactor runs Figure 8 twice: N derived by the Manager
// (2) and N forced to 1.
func AblationInteractionFactor() InteractionAblation {
	figs := engine.MapSlice([]int{2, 1}, buildFigure8)
	a := InteractionAblation{
		WithFactor:    figs[0],
		WithoutFactor: figs[1],
	}
	a.ChurnWith = knobChurn(a.WithFactor.ReqKnob, 1) + knobChurn(a.WithFactor.RespKnob, float64(mb))
	a.ChurnWithout = knobChurn(a.WithoutFactor.ReqKnob, 1) + knobChurn(a.WithoutFactor.RespKnob, float64(mb))
	return a
}

// RenderAblationInteraction formats the comparison.
func RenderAblationInteraction(a InteractionAblation) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Interaction-factor ablation (Figure 8 workload)")
	line := func(name string, f Figure8) {
		status := fmt.Sprintf("peak memory %.0fMB, %d ops", f.Mem.Max()/float64(mb), f.Completed)
		if f.OOM {
			status = fmt.Sprintf("OOM at %.0fs", f.OOMAt.Seconds())
		}
		fmt.Fprintf(&b, "  %-24s %s\n", name, status)
	}
	line("N=2 (§5.4 factor)", a.WithFactor)
	line("N=1 (naive composition)", a.WithoutFactor)
	fmt.Fprintf(&b, "  actuation churn: N=2 %.0f, N=1 %.0f (knob units moved)\n",
		a.ChurnWith, a.ChurnWithout)
	return b.String()
}

// AdaptiveAblation compares the fixed profiled model against the §7
// adaptive-model extension on HB3813, whose true gain doubles at the
// workload shift.
type AdaptiveAblation struct {
	Fixed    Result
	Adaptive Result
	// FinalAlphaFixed/Adaptive are the slopes the controllers ended with
	// (the plant's phase-2 slope is ≈2 MB/item).
	FinalAlphaFixed    float64
	FinalAlphaAdaptive float64
}

// adaptiveRun pairs a run with the slope its controller ended on — the
// memoized unit of the adaptive-model ablation (the final α is a product of
// the run, so it caches alongside the Result).
type adaptiveRun struct {
	Result Result
	Alpha  float64
}

// AblationAdaptiveModel runs the comparison. The two arms are independent
// and fan out across the worker pool.
func AblationAdaptiveModel() AdaptiveAblation {
	profile := ProfileHB3813()
	runs := engine.MapSlice([]bool{false, true}, func(adaptive bool) adaptiveRun {
		label := "fixed"
		if adaptive {
			label = "adaptive"
		}
		return memoKeyed("HB3813", label, "ablation-adaptive", 0, func() adaptiveRun {
			spec := hb3813Spec()
			spec.Adaptive = adaptive
			ic := mustSynth(smartconf.NewIndirect(spec, publicProfile(profile), nil))
			r := hb3813Figure().evaluate(SmartConf(), func(pl *hb3813Plant) { pl.integrate(ic) })
			return adaptiveRun{Result: r, Alpha: ic.ModelAlpha()}
		})
	})
	return AdaptiveAblation{
		Fixed:              runs[0].Result,
		Adaptive:           runs[1].Result,
		FinalAlphaFixed:    runs[0].Alpha,
		FinalAlphaAdaptive: runs[1].Alpha,
	}
}

// RenderAblationAdaptive formats the comparison.
func RenderAblationAdaptive(a AdaptiveAblation) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Adaptive-model ablation (HB3813; the true gain doubles at the phase shift)")
	line := func(name string, r Result, alpha float64) {
		ok := "ok"
		if !r.ConstraintMet {
			ok = "X " + r.Violation
		}
		fmt.Fprintf(&b, "  %-16s %-6s %8.2f ops/s  final α = %.2f MB/item\n",
			name, ok, r.Tradeoff, alpha/float64(mb))
	}
	line("fixed model", a.Fixed, a.FinalAlphaFixed)
	line("adaptive (RLS)", a.Adaptive, a.FinalAlphaAdaptive)
	fmt.Fprintln(&b, "  (phase-1 true slope ≈ 1 MB/item, phase-2 ≈ 2 MB/item)")
	return b.String()
}

// ProfilingDepthRow is one entry of the profiling-sensitivity sweep.
type ProfilingDepthRow struct {
	Settings      int
	Samples       int // per setting
	ConstraintMet bool
	Throughput    float64
	SynthesisErr  string
}

// AblationProfilingDepth quantifies §6.1's robustness claim — "SmartConf
// produces effective and robust controllers without intensive profiling" —
// by subsampling the HB3813 profiling campaign: the full 4×10 plan, a sparse
// 2×3 plan, and a degenerate single-setting plan (which cannot identify a
// slope and must fail synthesis loudly rather than misbehave quietly).
func AblationProfilingDepth() []ProfilingDepthRow {
	full := ProfileHB3813()
	plans := []struct{ settings, samples int }{
		{4, 10}, {4, 3}, {2, 3}, {1, 10},
	}
	return engine.MapSlice(plans, func(plan struct{ settings, samples int }) ProfilingDepthRow {
		return memoKeyed("HB3813",
			fmt.Sprintf("settings=%d samples=%d", plan.settings, plan.samples),
			"ablation-depth", 0, func() ProfilingDepthRow {
				sub := subsampleProfile(full, plan.settings, plan.samples)
				row := ProfilingDepthRow{Settings: plan.settings, Samples: plan.samples}
				ic, err := smartconf.NewIndirect(hb3813Spec(), publicProfile(sub), nil)
				if err != nil {
					row.SynthesisErr = err.Error()
					return row
				}
				r := hb3813Figure().evaluate(SmartConf(), func(pl *hb3813Plant) { pl.integrate(ic) })
				row.ConstraintMet = r.ConstraintMet
				row.Throughput = r.Tradeoff
				return row
			})
	})
}

// subsampleProfile keeps the first `settings` settings and the first
// `samples` measurements of each.
func subsampleProfile(p core.Profile, settings, samples int) core.Profile {
	var out core.Profile
	for i, s := range p.Settings {
		if i >= settings {
			break
		}
		n := samples
		if n > len(s.Samples) {
			n = len(s.Samples)
		}
		out.Settings = append(out.Settings, core.SettingProfile{
			Setting: s.Setting,
			Samples: append([]float64(nil), s.Samples[:n]...),
		})
	}
	return out
}

// RenderAblationProfilingDepth formats the sweep.
func RenderAblationProfilingDepth(rows []ProfilingDepthRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Profiling-depth ablation (HB3813): controller quality vs profiling effort")
	fmt.Fprintf(&b, "%10s %9s %8s %12s  %s\n", "settings", "samples", "OK?", "ops/s", "synthesis")
	for _, r := range rows {
		if r.SynthesisErr != "" {
			fmt.Fprintf(&b, "%10d %9d %8s %12s  refused: %s\n", r.Settings, r.Samples, "-", "-", r.SynthesisErr)
			continue
		}
		ok := "ok"
		if !r.ConstraintMet {
			ok = "X"
		}
		fmt.Fprintf(&b, "%10d %9d %8s %12.2f  ok\n", r.Settings, r.Samples, ok, r.Throughput)
	}
	return b.String()
}

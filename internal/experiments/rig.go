package experiments

import (
	"fmt"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/proptest"
	"smartconf/internal/sim"
)

// A rig is one issue's plant built on one simulation, with every part that
// its figure run and its chaos cell schedule. Each issue has one rig
// constructor, whose parameters are what the harnesses vary: seeds,
// horizon, workload phases and disturbance calibration. Building a rig
// schedules nothing. Two runners read it, runFigure and runChaosCell, and
// each registers the parts in its own fixed order, because the simulation
// breaks same-instant ties by scheduling order (TestFigureRunnerOrder and
// TestChaosCellRunnerOrder pin both orders).
type rig struct {
	s       *sim.Simulation
	horizon time.Duration // the run stops here

	// smart installs the issue's SmartConf integration at its decision
	// site, the lines Table 7 counts, and returns its goal setter (nil:
	// none). actuate applies a raw knob value: static policies and the
	// chaos loop set the knob through it. Integer knobs truncate the value
	// here, where the integrations in smart round (ic.Conf()) on HB3813,
	// HD4995 and LLMKV: making the two agree rewrites every chaos
	// fingerprint, a change for one that re-records the goldens.
	smart   func() (setGoal func(float64))
	actuate func(v float64)

	disturb func(env *chaos.Env) // the plant's disturbance; nil: none
	load    func(env *chaos.Env) // the workload; env scales it (nil: no surge)

	// probe is sampled once a second while more holds. The chaos report's
	// metric and knob are its first two columns. samples is its sample
	// count when the run lasts to horizon, what each series is presized
	// to; 0 (a run that ends when its work does) leaves them to grow.
	probe   []column
	more    func() bool
	samples int

	// The figure run: at goalAt (0: never) the goal moves to goal2, and
	// judge labels and measures the trade-off and judges the constraint.
	goalAt time.Duration
	goal2  float64
	judge  func(res *Result)

	// cell builds the parts only the chaos cell reads (nil: the issue has
	// no cell). Only runChaosCell calls it, so a figure run builds none of
	// them.
	cell func() cellParts
}

// cellParts are the parts of a rig that only its chaos cell reads.
type cellParts struct {
	attach func(tick func()) // installs tick at the issue's decision site
	active time.Duration     // fault-placement window; 0 means horizon
	tune   chaosTune
	// knobLo and knobHi bound the knob (for generated clamp faults and the
	// conf-in-bounds oracle); goal is the judged metric bound over time.
	knobLo, knobHi float64
	goal           []proptest.Sample
	surge          float64 // the surge fault's workload multiplier
	// synth builds a fresh controller step (again after a crash).
	synth  func(opts []smartconf.Option) func(perf, deputy float64) float64
	sense  func() (perf, deputy float64)
	shift  func(start, dur time.Duration) chaos.Fault // the plant-shift fault
	finish func(rep *proptest.Report)                 // progress and crash fields
}

// column is one probe series and its sampler. A sample that is not ok (no
// flush or lock hold has completed since the last one) is skipped.
type column struct {
	Series
	sample func() (float64, bool)
}

// runFigure runs the rig's figure scenario under p and judges it. It
// registers the policy, the disturbance, the 1 Hz probe, the goal change
// and the load, in that order. install, when non-nil, replaces p's own
// policy with an ablation arm's knob rule, and p then only labels the
// Result.
func (r *rig) runFigure(p Policy, install func()) Result {
	var setGoal func(float64)
	switch {
	case install != nil:
		install()
	case p.Kind == StaticPolicy:
		r.actuate(p.Static)
	case p.Kind == SmartConfPolicy:
		setGoal = r.smart()
	default:
		panic(fmt.Sprintf("experiments: no installer for policy %v", p))
	}
	if r.disturb != nil {
		r.disturb(nil)
	}
	series := make([]Series, len(r.probe))
	for i, c := range r.probe {
		series[i] = c.Series
		if r.samples > 0 {
			series[i].Points = make([]Point, 0, r.samples)
		}
	}
	r.s.Every(time.Second, time.Second, func() bool {
		for i, c := range r.probe {
			if v, ok := c.sample(); ok {
				series[i].Points = append(series[i].Points, Point{r.s.Now(), v})
			}
		}
		return r.more()
	})
	if r.goalAt > 0 {
		r.s.At(r.goalAt, func() {
			if setGoal != nil {
				setGoal(r.goal2)
			}
		})
	}
	r.load(nil)
	r.s.RunUntil(r.horizon)
	for i := range series {
		series[i].Points = clipped(series[i].Points)
	}

	res := Result{Policy: p, Series: series}
	r.judge(&res)
	return res
}

// clipped returns s without spare capacity, nil when empty: the series of a
// run that ended early, or of a column that skipped samples, is copied to
// its length, so a cached result holds no more than its samples.
func clipped[T any](s []T) []T {
	switch {
	case len(s) == cap(s):
		return s
	case len(s) == 0:
		return nil
	}
	return append([]T(nil), s...)
}

// evalUpperBound scans a metric series against a per-time goal and reports
// the first violation.
func evalUpperBound(series Series, goalAt func(t time.Duration) float64) (met bool, at time.Duration, worst float64) {
	met = true
	for _, p := range series.Points {
		if p.V > goalAt(p.T) {
			if met {
				met = false
				at = p.T
			}
			if p.V > worst {
				worst = p.V
			}
		}
	}
	return met, at, worst
}

// judgeSoftGoal records the verdict on a soft goal over the run's first
// series. Soft goals are SLA-like, so samples get 5% measurement slack (the
// paper's soft goals are not overshoot-free); what names the metric in the
// violation.
func judgeSoftGoal(res *Result, what string, goalAt func(time.Duration) float64) {
	met, at, worst := evalUpperBound(res.Series[0], func(t time.Duration) float64 { return goalAt(t) * 1.05 })
	res.ConstraintMet = met
	if !met {
		res.ViolatedAt = at
		res.Violation = fmt.Sprintf("%s %.1fs > goal %.1fs", what, worst, goalAt(at))
	}
}

// judgeHardMemory records the verdict on a hard memory goal over the run's
// first series: an OOM is the violation; otherwise the first probe sample
// above goalAt is.
func judgeHardMemory(res *Result, oom bool, oomAt time.Duration, goalAt func(time.Duration) float64) {
	met, at, worst := evalUpperBound(res.Series[0], goalAt)
	switch {
	case oom:
		res.ViolatedAt, res.Violation = oomAt, "OOM"
	case !met:
		res.ViolatedAt = at
		res.Violation = fmt.Sprintf("memory %.0fMB > goal %.0fMB", worst/float64(mb), goalAt(at)/float64(mb))
	}
	res.ConstraintMet = res.Violation == ""
}

// constGoal is a goal that holds for the whole run.
func constGoal(goal int64) func(time.Duration) float64 {
	return func(time.Duration) float64 { return float64(goal) }
}

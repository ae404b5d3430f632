// Package experiments reproduces the paper's evaluation (§6): the six
// real-world PerfConf issues of Table 6 on the simulated substrates, the
// trade-off comparison of Figure 5, the HB3813 case study of Figure 6, the
// controller ablations of Figure 7, the interacting-configuration study of
// Figure 8, and Tables 6 and 7.
//
// Each scenario couples a substrate, a phased workload, and a policy for the
// PerfConf under study. Policies:
//
//   - SmartConf: the public smartconf API, synthesized from a profiling run
//     on the PROFILING workload (always different from the evaluation
//     workload, per the paper's methodology).
//   - Static(v): the traditional approach — the knob pinned at v for the
//     whole run. The Figure 5 harness sweeps a grid to find the best static
//     setting in hindsight, which is the strongest possible baseline.
//   - SinglePole / NoVirtualGoal: the Figure 7 ablations of SmartConf's two
//     hard-goal techniques.
//
// All runs are deterministic: fixed seeds, virtual time.
package experiments

import (
	"fmt"
	"time"

	"smartconf/internal/metrics"
)

// PolicyKind selects how the PerfConf under study is managed during a run.
type PolicyKind int

const (
	// SmartConfPolicy uses the synthesized controller (the paper's system).
	SmartConfPolicy PolicyKind = iota
	// StaticPolicy pins the knob at Policy.Static.
	StaticPolicy
	// SinglePolePolicy is the Figure 7 ablation: same virtual goal as
	// SmartConf but only the regular pole (no danger-region switch).
	SinglePolePolicy
	// NoVirtualGoalPolicy is the Figure 7 ablation: two-pole logic but
	// targeting the real constraint instead of the virtual goal.
	NoVirtualGoalPolicy
)

// Policy is a PolicyKind plus its parameters.
type Policy struct {
	Kind   PolicyKind
	Static float64
	// FixedPole, when positive, overrides the automatically derived pole —
	// the paper's Figure 7 pins both SmartConf and the single-pole baseline
	// at 0.9 so the two-pole mechanism is the only difference.
	FixedPole float64
}

// Static returns a StaticPolicy pinned at v.
func Static(v float64) Policy { return Policy{Kind: StaticPolicy, Static: v} }

// SmartConf returns the SmartConfPolicy.
func SmartConf() Policy { return Policy{Kind: SmartConfPolicy} }

func (p Policy) String() string {
	switch p.Kind {
	case SmartConfPolicy:
		return "SmartConf"
	case StaticPolicy:
		return fmt.Sprintf("Static(%g)", p.Static)
	case SinglePolePolicy:
		return "SinglePole"
	case NoVirtualGoalPolicy:
		return "NoVirtualGoal"
	}
	return fmt.Sprintf("Policy(%d)", int(p.Kind))
}

// Point is one time-series sample.
type Point struct {
	T time.Duration
	V float64
}

// Series is a named time series collected during a run (used to regenerate
// the paper's figures).
type Series struct {
	Name   string
	Unit   string
	Points []Point
}

// At returns the last value at or before t (0 when none).
func (s Series) At(t time.Duration) float64 {
	var v float64
	for _, p := range s.Points {
		if p.T > t {
			break
		}
		v = p.V
	}
	return v
}

// Max returns the series maximum (0 when empty).
func (s Series) Max() float64 {
	var m float64
	for i, p := range s.Points {
		if i == 0 || p.V > m {
			m = p.V
		}
	}
	return m
}

// newSamples reports a latency tracker's last sample only when one has
// completed since the previous call, so a probe records each flush or lock
// hold once.
func newSamples(lat *metrics.Latency) func() (float64, bool) {
	var seen int64
	return func() (float64, bool) {
		n := lat.Count()
		if n <= seen {
			return 0, false
		}
		seen = n
		return lat.Last().Seconds(), true
	}
}

// mustSynth unwraps a controller construction whose inputs are fixed by
// the scenario: a synthesis error there is a bug, not an outcome.
func mustSynth[C any](c C, err error) C {
	if err != nil {
		panic(fmt.Sprintf("experiments: synthesis: %v", err))
	}
	return c
}

// Result is the outcome of one scenario run under one policy.
type Result struct {
	Issue  string
	Policy Policy

	// ConstraintMet reports whether the scenario's performance constraint
	// held for the entire run.
	ConstraintMet bool
	// Violation describes the first violation ("OOM", "OOD",
	// "block 12s > 10s"); empty when the constraint held.
	Violation string
	// ViolatedAt is when the first violation occurred (0 when none).
	ViolatedAt time.Duration

	// Tradeoff is the secondary metric the system optimizes subject to the
	// constraint (write throughput, du latency, job time...).
	Tradeoff float64
	// TradeoffName labels the metric, with units.
	TradeoffName string
	// HigherIsBetter orients comparisons of Tradeoff.
	HigherIsBetter bool

	// Series holds the time series behind Figures 6–8.
	Series []Series
}

// SeriesByName returns the named series, if collected.
func (r Result) SeriesByName(name string) (Series, bool) {
	for _, s := range r.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// BetterThan reports whether r's trade-off beats other's, respecting metric
// orientation. Results that violate the constraint never beat ones that meet
// it.
func (r Result) BetterThan(other Result) bool {
	if r.ConstraintMet != other.ConstraintMet {
		return r.ConstraintMet
	}
	if r.HigherIsBetter {
		return r.Tradeoff > other.Tradeoff
	}
	return r.Tradeoff < other.Tradeoff
}

// Speedup returns r's trade-off improvement over base as a multiplicative
// factor (>1 means r is better), respecting orientation.
func (r Result) Speedup(base Result) float64 {
	if base.Tradeoff == 0 || r.Tradeoff == 0 {
		return 0
	}
	if r.HigherIsBetter {
		return r.Tradeoff / base.Tradeoff
	}
	return base.Tradeoff / r.Tradeoff
}

// Scenario is one of the paper's six benchmark issues: metadata plus its
// profiling and run functions.
type Scenario struct {
	// ID is the paper's issue identifier (e.g. "HB3813").
	ID string
	// Conf is the PerfConf under study.
	Conf string
	// Description summarizes the issue (Table 6's wording).
	Description string
	// Flags is the paper's ?-?-? triple: conditional, direct, hard.
	Flags string
	// ConstraintName and TradeoffName label the two metrics.
	ConstraintName string
	TradeoffName   string
	HigherIsBetter bool
	// ProfilingWorkload and PhaseWorkloads describe Table 6's workloads.
	ProfilingWorkload string
	PhaseWorkloads    [2]string
	// BuggyDefault and PatchDefault are the pre-patch and post-patch static
	// defaults (the paper's values where published).
	BuggyDefault float64
	PatchDefault float64
	// StaticGrid is the sweep used to find the best static setting.
	StaticGrid []float64
	// NonOptimal is a representative suboptimal static choice for Figure 5.
	NonOptimal float64
	// Run executes the scenario under a policy.
	Run func(Policy) Result
}

// Scenarios returns the six benchmark scenarios in Table 6 order.
func Scenarios() []Scenario {
	return []Scenario{
		CA6059Scenario(),
		HB2149Scenario(),
		HB3813Scenario(),
		HB6728Scenario(),
		HD4995Scenario(),
		MR2820Scenario(),
	}
}

// ScenarioByID looks a scenario up by its issue ID.
func ScenarioByID(id string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.ID == id {
			return s, true
		}
	}
	return Scenario{}, false
}

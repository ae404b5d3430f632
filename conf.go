package smartconf

import (
	"fmt"
	"math"
	"sync"

	"smartconf/internal/core"
	"smartconf/internal/declog"
)

// Spec declares one SmartConf configuration: its identity, the performance
// metric it affects, the user's goal on that metric, and the actuator range.
// This is the programmatic equivalent of one binding in the SmartConf system
// file plus the matching entry in the user goals file.
type Spec struct {
	// Name identifies the configuration (e.g. "ipc.server.max.queue.size").
	Name string
	// Metric names the performance metric the configuration affects
	// (e.g. "memory_consumption"). Configurations sharing a super-hard
	// metric under one Manager coordinate automatically.
	Metric string
	// Goal is the numeric performance constraint.
	Goal float64
	// Hard marks constraints that must not be overshot (OOM/OOD class);
	// hard goals receive a virtual goal and two-pole control (§5.2).
	Hard bool
	// SuperHard additionally engages the §5.4 interaction factor when
	// several configurations share the metric.
	SuperHard bool
	// LowerBound flips the constraint direction: the metric must stay at or
	// above Goal. Default is an upper bound, like every goal in the paper.
	LowerBound bool
	// Initial is the configuration's starting value before the first
	// adjustment; its quality does not matter (§4.1.1).
	Initial float64
	// Min and Max clamp the configuration value. Max of 0 means unbounded.
	Min, Max float64
	// Interaction overrides the §5.4 factor N for standalone construction
	// (Managers compute it from shared metrics instead). Values < 1 mean 1.
	Interaction int
	// Adaptive enables online model refinement (recursive least squares
	// over the pairs the controller observes at run time), letting the
	// controller track plants whose gain drifts after profiling — the
	// paper's §7 learning direction. Forgetting tunes how fast old
	// observations fade (0 = the library default).
	Adaptive   bool
	Forgetting float64
}

func (s Spec) goal() core.Goal {
	b := core.UpperBound
	if s.LowerBound {
		b = core.LowerBound
	}
	return core.Goal{
		Metric:    s.Metric,
		Target:    s.Goal,
		Bound:     b,
		Hard:      s.Hard || s.SuperHard,
		SuperHard: s.SuperHard,
	}
}

func (s Spec) options() core.Options {
	return core.Options{
		Min:         s.Min,
		Max:         s.Max,
		Initial:     s.Initial,
		Interaction: s.Interaction,
	}
}

// Alert reports that a controller believes its goal is unreachable: the
// actuator has been pinned at a bound for Consecutive updates while the
// error persisted. SmartConf keeps making best-effort progress; the alert
// exists so operators learn the declared goal cannot be met (§4.3).
type Alert struct {
	Conf        string
	Metric      string
	Goal        float64
	Measured    float64
	Consecutive int
}

func (a Alert) String() string {
	return fmt.Sprintf("smartconf: goal %s=%g looks unreachable for %s (measured %g, %d saturated updates)",
		a.Metric, a.Goal, a.Conf, a.Measured, a.Consecutive)
}

// AlertFunc receives unreachable-goal alerts. It must not call back into the
// alerting Conf.
type AlertFunc func(Alert)

// Conf is a directly-acting SmartConf configuration (the paper's SmartConf
// class, Figure 3): the configuration value itself is what the plant model
// relates to performance.
//
// All methods are safe for concurrent use.
type Conf struct {
	// mu points at own, or, for a Conf built WithDecisionLog, at the log's
	// mutex: a decision and its record then take one critical section.
	mu   *sync.Mutex
	own  sync.Mutex
	name string
	ctrl *core.Controller // guardedby: mu

	pending   float64 // guardedby: mu — latest measurement, consumed by Conf()
	lastValue float64 // guardedby: mu — clampedby: sanitizeKnob

	// The flags sit together so that a Conf packs into 88 bytes, inside the
	// allocator's 96-byte size class; a larger class costs the fleets'
	// control ticks cache misses.
	hasPending      bool // guardedby: mu
	alertFired      bool // guardedby: mu
	adaptiveEnabled bool
	profiling       bool

	alert          AlertFunc
	alertThreshold int

	collector *core.Collector // guardedby: mu
}

// New constructs a standalone Conf from a Spec and a Profile: the controller
// is synthesized immediately (pole from Δ, virtual goal from λ). Most
// applications construct Confs through a Manager instead, which wires
// file-based specs and cross-configuration coordination.
func New(spec Spec, profile *Profile, opts ...Option) (*Conf, error) {
	o := applyOptions(opts)
	if profile == nil || profile.Len() == 0 {
		return nil, fmt.Errorf("smartconf: configuration %q needs profiling data (run a Plan first)", spec.Name)
	}
	ctrl, err := core.Synthesize(profile.coreProfile(), spec.goal(), spec.options())
	if err != nil {
		return nil, fmt.Errorf("smartconf: synthesizing controller for %q: %w", spec.Name, err)
	}
	if spec.Adaptive {
		ctrl.EnableAdaptation(spec.Forgetting)
	}
	if o.declog != nil {
		ctrl.AttachLog(o.declog, spec.Name)
	}
	if o.perturb != nil {
		ctrl.SetPerturb(*o.perturb)
	}
	c := newConf(spec, ctrl, o)
	c.adaptiveEnabled = spec.Adaptive
	return c, nil
}

// sanitizeKnob is the last line of defense on the one field every knob read
// serves: a non-finite candidate — a user Transducer returning NaN/Inf, a
// profiling pin gone wrong — keeps the previous value instead of poisoning
// the knob. The controller core clamps its own outputs (see core's
// `clampedby: clamp` field); this guards the paths that bypass the core.
// Every lastValue write must flow through it (enforced by the confbounds
// analyzer via the field's `clampedby:` annotation).
func sanitizeKnob(prev, v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return prev
	}
	return v
}

func newConf(spec Spec, ctrl *core.Controller, o options) *Conf {
	c := &Conf{
		name:           spec.Name,
		ctrl:           ctrl,
		lastValue:      sanitizeKnob(0, ctrl.Conf()),
		alert:          o.alert,
		alertThreshold: o.alertThreshold,
	}
	c.mu = &c.own
	if o.declog != nil {
		// ctrl records with the log's held-lock forms (see AttachLog).
		c.mu = declog.Mutex(o.declog)
	}
	return c
}

// newProfilingConf builds a Conf in profiling mode: no controller, the value
// is pinned externally (PinValue) and every SetPerf records a sample.
func newProfilingConf(spec Spec, o options) *Conf {
	c := &Conf{
		name:           spec.Name,
		lastValue:      sanitizeKnob(0, spec.Initial),
		alert:          o.alert,
		alertThreshold: o.alertThreshold,
		profiling:      true,
		collector:      core.NewCollector(),
	}
	c.mu = &c.own
	return c
}

// Name returns the configuration's name.
func (c *Conf) Name() string { return c.name }

// SetPerf feeds the latest measurement of the configuration's performance
// metric (obtained from the developer's sensor). The next Conf call uses it
// to adjust the setting.
//
//smartconf:hotpath
func (c *Conf) SetPerf(actual float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = actual
	c.hasPending = true
	if c.profiling {
		c.collector.Record(c.lastValue, actual)
	}
}

// Conf computes and returns the adjusted configuration setting, rounded to
// the nearest integer (most PerfConfs are integral — queue lengths, file
// counts, byte limits). Use Value for float-valued configurations.
func (c *Conf) Conf() int {
	return int(math.Round(c.Value()))
}

// Value computes and returns the adjusted configuration setting as a float.
// If no new measurement arrived since the last call, the previous setting is
// returned unchanged (the controller only acts on fresh information).
//
//smartconf:hotpath
func (c *Conf) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.valueLocked()
}

func (c *Conf) valueLocked() float64 {
	if c.profiling || c.ctrl == nil {
		return c.lastValue
	}
	if !c.hasPending {
		return c.lastValue
	}
	c.lastValue = sanitizeKnob(c.lastValue, c.ctrl.Update(c.pending))
	c.hasPending = false
	c.maybeAlertLocked()
	return c.lastValue
}

func (c *Conf) maybeAlertLocked() {
	if c.alert == nil {
		return
	}
	sat := c.ctrl.SaturatedFor()
	if sat == 0 {
		c.alertFired = false
		return
	}
	if sat >= c.alertThreshold && !c.alertFired {
		c.alertFired = true
		g := c.ctrl.Goal()
		a := Alert{
			Conf:        c.name,
			Metric:      g.Metric,
			Goal:        g.Target,
			Measured:    c.pending,
			Consecutive: sat,
		}
		// Deliver outside the lock so the handler can inspect the Conf.
		go c.alert(a)
	}
}

// SetGoal updates the performance goal at run time (the paper's setGoal API,
// available to users and administrators). Hard goals recompute their virtual
// goal from the profiled stability coefficient.
func (c *Conf) SetGoal(goal float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctrl != nil {
		c.ctrl.SetGoal(goal)
	}
}

// Goal returns the current goal target.
func (c *Conf) Goal() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctrl == nil {
		return math.NaN()
	}
	return c.ctrl.Goal().Target
}

// VirtualGoal returns the effective setpoint: for hard goals, the
// automatically derived virtual goal s_v = (1−λ)·goal; otherwise the goal.
func (c *Conf) VirtualGoal() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctrl == nil {
		return math.NaN()
	}
	return c.ctrl.VirtualTarget()
}

// ModelAlpha returns the plant-model slope currently in use: the profiled
// slope, or the live estimate when Spec.Adaptive is set.
func (c *Conf) ModelAlpha() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctrl == nil {
		return math.NaN()
	}
	return c.ctrl.AdaptiveAlpha()
}

// Pole returns the automatically derived safe-region pole (diagnostics).
func (c *Conf) Pole() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctrl == nil {
		return math.NaN()
	}
	return c.ctrl.Pole()
}

// Profiling reports whether the Conf is in profiling mode (no controller;
// samples recorded on every SetPerf).
func (c *Conf) Profiling() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.profiling
}

// PinValue pins the configuration during a profiling campaign. It has no
// effect outside profiling mode.
func (c *Conf) PinValue(v float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.profiling {
		c.lastValue = sanitizeKnob(c.lastValue, v)
	}
}

// CollectedProfile returns a copy of the samples gathered so far in
// profiling mode, or nil outside it.
func (c *Conf) CollectedProfile() *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.profiling {
		return nil
	}
	p := NewProfile()
	for _, s := range c.collector.Profile().Settings {
		p.Add(s.Setting, s.Samples...)
	}
	return p
}

// setInteraction is called by the Manager when the population of a
// super-hard metric changes.
func (c *Conf) setInteraction(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctrl != nil {
		c.ctrl.SetInteraction(n)
	}
}

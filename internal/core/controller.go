package core

import (
	"fmt"
	"math"

	"smartconf/internal/declog"
)

// Bound is the direction of a performance constraint.
type Bound int

const (
	// UpperBound means the metric must stay at or below the goal
	// (memory consumption, disk usage, latency, block time — every goal in
	// the paper's benchmark suite is an upper bound).
	UpperBound Bound = iota
	// LowerBound means the metric must stay at or above the goal
	// (e.g. a minimum-throughput SLA).
	LowerBound
)

func (b Bound) String() string {
	if b == LowerBound {
		return "lower"
	}
	return "upper"
}

// Goal describes the performance constraint a controller enforces.
type Goal struct {
	// Metric names the performance metric (e.g. "memory_consumption").
	Metric string
	// Target is the numeric constraint value.
	Target float64
	// Bound is the constraint direction (upper bound by default).
	Bound Bound
	// Hard marks goals that must not be overshot (OOM, OOD). Hard goals get
	// a virtual goal and two-pole switching (§5.2).
	Hard bool
	// SuperHard additionally splits the error across all controllers
	// registered on the same metric via the interaction factor N (§5.4).
	SuperHard bool
}

// Options tunes controller construction beyond what synthesis derives.
type Options struct {
	// Min and Max clamp the actuator (configuration value). Defaults: [0, +Inf).
	Min, Max float64
	// Initial is the configuration's starting value (the paper: "only serves
	// as C's starting value before the first run"; quality does not matter).
	Initial float64
	// Interaction is the §5.4 factor N ≥ 1: the number of configurations
	// sharing this controller's super-hard goal. Values < 1 are treated as 1.
	Interaction int
}

// Controller is one synthesized SmartConf controller: the Eq. 2 update law
// plus the paper's PerfConf-specific extensions (automatic pole, virtual
// goal, two-pole switching, interaction factor, actuator clamping).
//
// Controller is not safe for concurrent use; the public smartconf package
// adds locking. With a decision log attached, Update and SetGoal record
// through the log's held-lock forms, so they must run inside the log's
// critical section (see AttachLog).
type Controller struct {
	model       Model
	pole        float64
	lambda      float64
	goal        Goal
	virtualGoal float64
	min, max    float64
	interaction float64

	conf      float64 // current (continuous) configuration value — clampedby: clamp
	adaptive  *AdaptiveModel
	lastPole  float64
	updates   int
	saturated int // consecutive updates pinned at a bound with persistent error

	log       *declog.Log   // optional decision log; nil when tracing is off
	logSrc    declog.Source // this controller's source id in log
	perturb   declog.Perturb
	perturbed bool
}

// Synthesize builds a controller from a profiling run and a goal, deriving
// the pole (§5.1) and, for hard goals, the virtual goal (§5.2) with no
// control-specific input from the user.
func Synthesize(p Profile, goal Goal, opts Options) (*Controller, error) {
	model, err := p.Fit()
	if err != nil {
		return nil, err
	}
	return newController(model, PoleFromDelta(p.Delta()), p.Lambda(), goal, opts)
}

// NewController builds a controller directly from a plant model, an explicit
// pole, and a stability coefficient λ. It is the escape hatch used by tests,
// ablation baselines (single-pole, no-virtual-goal), and callers that manage
// profiling themselves.
func NewController(model Model, pole, lambda float64, goal Goal, opts Options) (*Controller, error) {
	return newController(model, pole, lambda, goal, opts)
}

func newController(model Model, pole, lambda float64, goal Goal, opts Options) (*Controller, error) {
	if !model.Valid() {
		return nil, ErrDegenerateModel
	}
	if pole < 0 || pole >= 1 || math.IsNaN(pole) {
		return nil, fmt.Errorf("core: pole %v outside [0,1)", pole)
	}
	if math.IsNaN(goal.Target) || math.IsInf(goal.Target, 0) {
		return nil, fmt.Errorf("core: non-finite goal target %v", goal.Target)
	}
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		// A non-finite λ means the profile's variability was itself garbage
		// (NaN samples, overflowing magnitudes); refusing here keeps the
		// virtual goal — and therefore every conf the controller emits —
		// finite.
		return nil, fmt.Errorf("core: non-finite stability coefficient λ=%v", lambda)
	}
	min, max := opts.Min, opts.Max
	if max == 0 {
		max = math.Inf(1)
	}
	if math.IsNaN(min) || math.IsNaN(max) {
		return nil, fmt.Errorf("core: NaN actuator bound [%v,%v]", opts.Min, opts.Max)
	}
	if max < min {
		return nil, fmt.Errorf("core: actuator bounds inverted [%v,%v]", min, max)
	}
	if math.IsNaN(opts.Initial) || math.IsInf(opts.Initial, 0) {
		return nil, fmt.Errorf("core: non-finite initial value %v", opts.Initial)
	}
	n := opts.Interaction
	if n < 1 {
		n = 1
	}
	c := &Controller{
		model:       model,
		pole:        pole,
		lambda:      lambda,
		goal:        goal,
		min:         min,
		max:         max,
		interaction: float64(n),
		conf:        clamp(opts.Initial, min, max),
		lastPole:    pole,
	}
	c.recomputeVirtualGoal()
	return c, nil
}

func (c *Controller) recomputeVirtualGoal() {
	if c.goal.Hard {
		c.virtualGoal = VirtualGoal(c.goal.Target, c.lambda, c.goal.Bound)
	} else {
		c.virtualGoal = c.goal.Target
	}
}

// Update feeds the latest performance measurement and returns the adjusted
// configuration value (Eq. 2 with the §5.2/§5.4 extensions). This is the
// engine behind the public API's setPerf→getConf pair.
//
//smartconf:hotpath
func (c *Controller) Update(measured float64) float64 {
	// Online model refinement (§7 extension): the pair (current conf,
	// measured) is exactly one plant observation.
	alpha := c.model.Alpha
	if c.adaptive != nil {
		c.adaptive.Observe(c.conf, measured)
		alpha = c.adaptive.Alpha()
	}

	// The setpoint error drives Eq. 2 for both bound directions; only the
	// definition of the danger region (pole switching) depends on the bound.
	e := c.virtualGoal - measured

	pole := c.pole
	if c.goal.Hard && c.beyondVirtualGoal(measured) {
		// Context-aware pole (§5.2): past the virtual goal, react with the
		// most aggressive stable pole to re-enter the safe region quickly.
		pole = 0
	}

	// Counterfactual replay (cmd/smartconf-replay): from the perturbation's
	// start period onward, pin the pole and/or move the clamp bounds. Periods
	// are 1-based and this update is c.updates+1, so the perturbation covers
	// it once c.updates+1 >= FromPeriod.
	minB, maxB := c.min, c.max
	if c.perturbed && uint32(c.updates)+1 >= c.perturb.FromPeriod {
		if c.perturb.SetPole && !math.IsNaN(c.perturb.Pole) {
			pole = c.perturb.Pole
		}
		if c.perturb.SetMin && !math.IsNaN(c.perturb.Min) {
			minB = c.perturb.Min
		}
		if c.perturb.SetMax && !math.IsNaN(c.perturb.Max) {
			maxB = c.perturb.Max
		}
		if maxB < minB {
			maxB = minB
		}
	}

	delta := (1 - pole) / (c.interaction * alpha) * e
	raw := c.conf + delta
	reason := declog.ClampNone
	if math.IsNaN(raw) {
		// Only reachable with an unbounded actuator: a ±∞ knob being
		// corrected by an opposite ±∞ step. Saturate in the step's direction
		// instead of poisoning the knob with NaN.
		raw = math.Inf(1)
		if delta < 0 {
			raw = math.Inf(-1)
		}
		reason = declog.ClampNonFinite
	}
	next := clamp(raw, minB, maxB)

	// Track saturation so the owner can raise an "unreachable goal" alert:
	// the controller keeps asking for a value beyond an actuator bound.
	clamped := ClassifyClamp(raw, minB, maxB)
	if clamped == declog.ClampMin || clamped == declog.ClampMax {
		c.saturated++
	} else {
		c.saturated = 0
	}
	if reason == declog.ClampNone {
		reason = clamped
	}

	c.conf = next
	c.lastPole = pole
	c.updates++
	if c.log != nil {
		declog.AppendLocked(c.log, declog.Record{
			Source:  c.logSrc,
			Period:  uint32(c.updates),
			Clamp:   reason,
			Sensed:  measured,
			Err:     e,
			Pole:    pole,
			Raw:     raw,
			Applied: next,
		})
	}
	return c.conf
}

func (c *Controller) beyondVirtualGoal(measured float64) bool {
	if c.goal.Bound == LowerBound {
		return measured < c.virtualGoal
	}
	return measured > c.virtualGoal
}

// Conf returns the current configuration value without updating it.
func (c *Controller) Conf() float64 { return c.conf }

// SetConf overrides the current configuration value (clamped). Used when an
// external actor (an administrator, a recovery path) moves the knob.
func (c *Controller) SetConf(v float64) { c.conf = clamp(v, c.min, c.max) }

// SetGoal replaces the goal target at run time (the public setGoal API) and
// recomputes the virtual goal from the profiled λ. With a decision log
// attached the goal epoch advances, so replay can tell the regimes apart.
func (c *Controller) SetGoal(target float64) {
	c.goal.Target = target
	c.recomputeVirtualGoal()
	if c.log != nil {
		declog.BumpEpochLocked(c.log)
	}
}

// AttachLog makes the controller record every Update into l under the given
// producer name. Registration is idempotent by name, so a controller
// resynthesized after a crash reattaches to its pre-crash source id.
//
// From then on Update and SetGoal record with l's held-lock forms: their
// caller must hold declog.Mutex(l), so that a decision and its record are
// one critical section. The public smartconf package locks that mutex in
// place of the configuration's own.
func (c *Controller) AttachLog(l *declog.Log, name string) {
	c.log = l
	c.logSrc = l.Register(name)
}

// SetPerturb arms (or, with a zero perturbation, disarms) a counterfactual
// decision edit — the offline replay tool's hook. Production paths never
// call this.
func (c *Controller) SetPerturb(p declog.Perturb) {
	c.perturb = p
	c.perturbed = !p.Zero()
}

// SetInteraction updates the §5.4 factor when configurations join or leave a
// super-hard goal at run time.
func (c *Controller) SetInteraction(n int) {
	if n < 1 {
		n = 1
	}
	c.interaction = float64(n)
}

// Goal returns the current goal.
func (c *Controller) Goal() Goal { return c.goal }

// VirtualTarget returns the effective setpoint: the virtual goal for hard
// goals, the goal itself otherwise.
func (c *Controller) VirtualTarget() float64 { return c.virtualGoal }

// Pole returns the regular (safe-region) pole.
func (c *Controller) Pole() float64 { return c.pole }

// LastPole returns the pole used by the most recent Update (0 when the
// two-pole logic was in the danger region).
func (c *Controller) LastPole() float64 { return c.lastPole }

// Lambda returns the profiled stability coefficient.
func (c *Controller) Lambda() float64 { return c.lambda }

// Model returns the fitted plant model.
func (c *Controller) Model() Model { return c.model }

// Updates returns the number of Update calls so far.
func (c *Controller) Updates() int { return c.updates }

// SaturatedFor reports for how many consecutive updates the actuator has
// been pinned at a bound while error persisted — the signal behind the
// paper's "alerts users that the goal is unreachable".
func (c *Controller) SaturatedFor() int { return c.saturated }

// Bounds returns the actuator clamp range.
func (c *Controller) Bounds() (min, max float64) { return c.min, c.max }

func clamp(v, min, max float64) float64 {
	if v < min {
		return min
	}
	if v > max {
		return max
	}
	return v
}

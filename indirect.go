package smartconf

import (
	"fmt"
	"math"
)

// Transducer maps the controller-desired value of a deputy variable C′ to
// the value of the threshold configuration C that will steer C′ there
// (§5.3). For the common case — C is simply an upper or lower bound on C′ —
// Identity is all that is needed: to drop queue.size to K, drop
// max.queue.size to K.
type Transducer interface {
	Transduce(desiredDeputy float64) float64
}

// TransducerFunc adapts a function to the Transducer interface.
type TransducerFunc func(float64) float64

// Transduce calls f.
func (f TransducerFunc) Transduce(d float64) float64 { return f(d) }

// Identity returns the default transducer: C = desired C′.
func Identity() Transducer {
	return TransducerFunc(func(d float64) float64 { return d })
}

// Scale returns a transducer C = k·C′, for configurations whose threshold is
// expressed in different units than the deputy (e.g. a byte limit bounding
// an item count with a known item size).
func Scale(k float64) Transducer {
	return TransducerFunc(func(d float64) float64 { return k * d })
}

// IndirectConf is a SmartConf configuration that affects performance
// indirectly, by imposing a threshold on a deputy variable (the paper's
// SmartConf_I subclass, Figure 4). About half of the PerfConfs in the
// paper's study are of this kind: max.queue.size bounds queue.size, which is
// what actually drives memory consumption.
//
// The controller models deputy→performance and computes the desired next
// deputy value from the current measurement and the deputy's CURRENT value;
// the transducer then converts that desired deputy into the threshold
// setting. Callers therefore pass the deputy's current value to SetPerf.
//
// All methods are safe for concurrent use.
type IndirectConf struct {
	conf       *Conf
	transducer Transducer

	// pendingDeputy is guarded by conf.mu via setPerf/value helpers.
	pendingDeputy float64
}

// NewIndirect constructs a standalone IndirectConf. The profile must relate
// the DEPUTY variable (not the threshold) to the performance metric; the
// profiling mode of Manager records exactly that.
func NewIndirect(spec Spec, profile *Profile, t Transducer, opts ...Option) (*IndirectConf, error) {
	if t == nil {
		t = Identity()
	}
	c, err := New(spec, profile, opts...)
	if err != nil {
		return nil, err
	}
	return &IndirectConf{conf: c, transducer: t}, nil
}

// Name returns the configuration's name.
func (ic *IndirectConf) Name() string { return ic.conf.name }

// SetPerf feeds the latest performance measurement together with the current
// value of the deputy variable (e.g. the queue's actual size right now).
//
//smartconf:hotpath
func (ic *IndirectConf) SetPerf(actual float64, deputy float64) {
	c := ic.conf
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = actual
	c.hasPending = true
	ic.pendingDeputy = deputy
	if c.profiling {
		// In profiling mode measurements are grouped under the PINNED
		// threshold setting (the paper's 4-settings × 10-measurements plan);
		// per-setting variance is what the pole and virtual goal derive from.
		c.collector.Record(c.lastValue, actual)
	}
}

// Conf computes and returns the adjusted threshold setting, rounded to the
// nearest integer. Use Value for float-valued thresholds.
func (ic *IndirectConf) Conf() int {
	return int(math.Round(ic.Value()))
}

// Value computes and returns the adjusted threshold setting: the controller
// derives the desired next deputy value and the transducer converts it.
//
//smartconf:hotpath
func (ic *IndirectConf) Value() float64 {
	c := ic.conf
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.profiling || c.ctrl == nil {
		return c.lastValue
	}
	if !c.hasPending {
		return c.lastValue
	}
	// §5.3: the update starts from the deputy's CURRENT value, not from the
	// previous threshold — the deputy may lag behind a recently dropped
	// threshold, and the controller must reason about where the system IS.
	c.ctrl.SetConf(ic.pendingDeputy)
	desired := c.ctrl.Update(c.pending)
	c.hasPending = false
	// The transducer is user code and its output goes straight into the live
	// threshold, outside the controller's clamp — sanitize it so a NaN/Inf
	// transduction holds the previous setting instead of poisoning the knob.
	c.lastValue = sanitizeKnob(c.lastValue, ic.transducer.Transduce(desired))
	c.maybeAlertLocked()
	c.emitTraceLocked(ic.pendingDeputy)
	return c.lastValue
}

// SetGoal updates the performance goal at run time.
func (ic *IndirectConf) SetGoal(goal float64) { ic.conf.SetGoal(goal) }

// Goal returns the current goal target.
func (ic *IndirectConf) Goal() float64 { return ic.conf.Goal() }

// VirtualGoal returns the effective setpoint (see Conf.VirtualGoal).
func (ic *IndirectConf) VirtualGoal() float64 { return ic.conf.VirtualGoal() }

// Pole returns the safe-region pole (diagnostics).
func (ic *IndirectConf) Pole() float64 { return ic.conf.Pole() }

// ModelAlpha returns the plant-model slope currently in use (see
// Conf.ModelAlpha).
func (ic *IndirectConf) ModelAlpha() float64 { return ic.conf.ModelAlpha() }

// Profiling reports whether the configuration is in profiling mode.
func (ic *IndirectConf) Profiling() bool { return ic.conf.Profiling() }

// PinValue pins the threshold during profiling campaigns.
func (ic *IndirectConf) PinValue(v float64) { ic.conf.PinValue(v) }

// CollectedProfile returns the profiling samples gathered so far
// (deputy → performance), or nil outside profiling mode.
func (ic *IndirectConf) CollectedProfile() *Profile { return ic.conf.CollectedProfile() }

// String implements fmt.Stringer for diagnostics.
func (ic *IndirectConf) String() string {
	return fmt.Sprintf("IndirectConf(%s)", ic.conf.name)
}

package chaos

import (
	"math"
	"math/rand"
	"time"

	"smartconf/internal/declog"
	"smartconf/internal/sim"
)

// LoopConfig describes one control loop in injector-friendly form: the
// sense → control → actuate pipeline every scenario shim is an instance of.
type LoopConfig struct {
	// Sense reads the constrained metric and (for indirect configurations)
	// its deputy. Called once per Tick unless the controller is down.
	Sense func() (perf, deputy float64)
	// Step feeds a measurement pair to the controller and returns the new
	// knob value (the setPerf → getConf pair).
	Step func(perf, deputy float64) float64
	// Actuate applies a knob value to the substrate.
	Actuate func(v float64)
	// Rebuild, when set, re-synthesizes the controller from its profile
	// after a crash/restart — the recovering process has lost its in-memory
	// control state and reconstructs it the same way it was first built.
	Rebuild func() func(perf, deputy float64) float64
	// Log, when set, is the run's decision log. A crash resynthesis bumps
	// its goal epoch: the rebuilt controller restarts period numbering at 1,
	// and the fresh epoch is what lets replay tell the generations apart.
	Log *declog.Log
}

// Loop wires a LoopConfig into the fault pipeline. Substrate hooks call
// Tick where they would have called the shim directly; with no faults armed
// the behaviour is identical to the bare shim.
type Loop struct {
	sim *sim.Simulation
	cfg LoopConfig
	rng *rand.Rand

	// OnActuate observes every applied knob value (after clamping); oracles
	// and tests use it to record the actuation trace.
	OnActuate func(v float64)

	// fault state, mutated only by scheduled fault events
	noiseSigma       float64
	dropProb         float64
	staleDelay       time.Duration
	actDelay         time.Duration
	clampOn          bool
	clampLo, clampHi float64
	stalled          bool
	crashed          bool

	ticks    int
	steps    int
	restarts int

	// actuateFn is actuateBits bound once: a delayed actuation schedules it
	// with the knob value's bits as the event argument, where a closure per
	// delayed write would allocate.
	actuateFn func(uint64)
}

// NewLoop returns a Loop with no faults armed. The loop carries no random
// source of its own: Plan.Arm installs the plan-seeded one, and an unarmed
// loop never draws (every randomized fault knob is set only by armed plans).
// A zero-seeded default here would be indistinguishable from a forgotten
// plumbing line — exactly what the seedflow analyzer exists to catch.
func NewLoop(s *sim.Simulation, cfg LoopConfig) *Loop {
	l := &Loop{sim: s, cfg: cfg}
	l.actuateFn = l.actuateBits
	return l
}

// Tick runs one control iteration through whatever faults are active.
func (l *Loop) Tick() {
	l.ticks++
	if l.stalled || l.crashed {
		return
	}
	perf, deputy := l.cfg.Sense()
	if l.dropProb > 0 && l.rng.Float64() < l.dropProb {
		return // measurement lost; the knob holds its last value
	}
	if l.noiseSigma > 0 {
		perf *= 1 + l.noiseSigma*l.rng.NormFloat64()
		if perf < 0 {
			perf = 0
		}
	}
	if l.staleDelay > 0 {
		// The measurement is correct but arrives late: by delivery time the
		// plant has moved on. The closure captures a copy: capturing perf,
		// which the noise branch assigns, would move it to the heap on
		// every tick, faults armed or not.
		p := perf
		l.sim.After(l.staleDelay, func() { l.deliver(p, deputy) })
		return
	}
	l.deliver(perf, deputy)
}

func (l *Loop) deliver(perf, deputy float64) {
	if l.stalled || l.crashed {
		return // the controller went down while the sample was in flight
	}
	l.steps++
	v := l.cfg.Step(perf, deputy)
	if l.clampOn {
		if v < l.clampLo {
			v = l.clampLo
		}
		if v > l.clampHi {
			v = l.clampHi
		}
	}
	if l.actDelay > 0 {
		l.sim.AfterArg(l.actDelay, l.actuateFn, math.Float64bits(v))
		return
	}
	l.actuate(v)
}

// actuateBits is a delayed actuation firing: v holds the knob value's bits.
func (l *Loop) actuateBits(v uint64) { l.actuate(math.Float64frombits(v)) }

func (l *Loop) actuate(v float64) {
	if l.crashed {
		return
	}
	if l.OnActuate != nil {
		l.OnActuate(v)
	}
	l.cfg.Actuate(v)
}

func (l *Loop) restart() {
	l.crashed = false
	l.restarts++
	if l.cfg.Rebuild != nil {
		l.cfg.Step = l.cfg.Rebuild()
		if l.cfg.Log != nil {
			// The resynthesized controller is a new decision regime: its
			// period count restarts at 1, so without an epoch bump its
			// records would be indistinguishable from the pre-crash ones.
			l.cfg.Log.BumpEpoch()
		}
	}
}

// Ticks returns how many control iterations were attempted.
func (l *Loop) Ticks() int { return l.ticks }

// Steps returns how many measurements reached the controller.
func (l *Loop) Steps() int { return l.steps }

// Restarts returns how many crash/restart cycles completed.
func (l *Loop) Restarts() int { return l.restarts }

// Down reports whether the controller is currently stalled or crashed.
func (l *Loop) Down() bool { return l.stalled || l.crashed }

// SensorNoise multiplies measurements by 1 + Sigma·N(0,1) inside the window
// (a miscalibrated or jittery sensor). Duration 0 runs to the end.
type SensorNoise struct {
	Start, Duration time.Duration
	Sigma           float64
}

func (f SensorNoise) Name() string                      { return "sensor-noise" }
func (f SensorNoise) Span(horizon time.Duration) Window { return span(f.Start, f.Duration, horizon) }
func (f SensorNoise) Arm(env *Env) {
	l := loopOf(env, f.Name())
	env.Sim.At(f.Start, func() { l.noiseSigma = f.Sigma })
	if f.Duration > 0 {
		env.Sim.At(f.Start+f.Duration, func() { l.noiseSigma = 0 })
	}
}

// SensorDropout loses each measurement with probability Prob inside the
// window (Prob 1 is a full sensor outage). The knob must hold, not drift.
type SensorDropout struct {
	Start, Duration time.Duration
	Prob            float64
}

func (f SensorDropout) Name() string                      { return "sensor-dropout" }
func (f SensorDropout) Span(horizon time.Duration) Window { return span(f.Start, f.Duration, horizon) }
func (f SensorDropout) Arm(env *Env) {
	l := loopOf(env, f.Name())
	env.Sim.At(f.Start, func() { l.dropProb = f.Prob })
	if f.Duration > 0 {
		env.Sim.At(f.Start+f.Duration, func() { l.dropProb = 0 })
	}
}

// SensorStaleness delivers measurements Delay late inside the window: the
// controller acts on where the plant was, not where it is.
type SensorStaleness struct {
	Start, Duration time.Duration
	Delay           time.Duration
}

func (f SensorStaleness) Name() string { return "sensor-stale" }
func (f SensorStaleness) Span(horizon time.Duration) Window {
	return span(f.Start, f.Duration, horizon)
}
func (f SensorStaleness) Arm(env *Env) {
	l := loopOf(env, f.Name())
	env.Sim.At(f.Start, func() { l.staleDelay = f.Delay })
	if f.Duration > 0 {
		env.Sim.At(f.Start+f.Duration, func() { l.staleDelay = 0 })
	}
}

// ActuationDelay applies knob writes Delay late inside the window (a slow
// reconfiguration path between controller and plant).
type ActuationDelay struct {
	Start, Duration time.Duration
	Delay           time.Duration
}

func (f ActuationDelay) Name() string                      { return "act-delay" }
func (f ActuationDelay) Span(horizon time.Duration) Window { return span(f.Start, f.Duration, horizon) }
func (f ActuationDelay) Arm(env *Env) {
	l := loopOf(env, f.Name())
	env.Sim.At(f.Start, func() { l.actDelay = f.Delay })
	if f.Duration > 0 {
		env.Sim.At(f.Start+f.Duration, func() { l.actDelay = 0 })
	}
}

// ActuationClamp restricts applied knob values to [Min,Max] inside the
// window (an actuator that can no longer reach part of its range).
type ActuationClamp struct {
	Start, Duration time.Duration
	Min, Max        float64
}

func (f ActuationClamp) Name() string                      { return "act-clamp" }
func (f ActuationClamp) Span(horizon time.Duration) Window { return span(f.Start, f.Duration, horizon) }
func (f ActuationClamp) Arm(env *Env) {
	l := loopOf(env, f.Name())
	env.Sim.At(f.Start, func() { l.clampOn, l.clampLo, l.clampHi = true, f.Min, f.Max })
	if f.Duration > 0 {
		env.Sim.At(f.Start+f.Duration, func() { l.clampOn = false })
	}
}

// ControllerStall freezes the control loop inside the window: no sensing, no
// updates, the knob holds (a wedged controller thread). Unlike a crash, the
// controller resumes with its state intact.
type ControllerStall struct {
	Start, Duration time.Duration
}

func (f ControllerStall) Name() string { return "ctrl-stall" }
func (f ControllerStall) Span(horizon time.Duration) Window {
	return span(f.Start, f.Duration, horizon)
}
func (f ControllerStall) Arm(env *Env) {
	l := loopOf(env, f.Name())
	env.Sim.At(f.Start, func() { l.stalled = true })
	if f.Duration > 0 {
		env.Sim.At(f.Start+f.Duration, func() { l.stalled = false })
	}
}

// ControllerCrash kills the controller at At; RestartAfter later (0: never)
// it comes back with its in-memory state gone, re-synthesized from the
// profile via the loop's Rebuild hook. The knob holds its last applied value
// while the controller is down — exactly what a crashed sidecar looks like
// to the plant.
type ControllerCrash struct {
	At           time.Duration
	RestartAfter time.Duration
}

func (f ControllerCrash) Name() string { return "crash-restart" }
func (f ControllerCrash) Span(horizon time.Duration) Window {
	return span(f.At, f.RestartAfter, horizon)
}
func (f ControllerCrash) Arm(env *Env) {
	l := loopOf(env, f.Name())
	env.Sim.At(f.At, func() { l.crashed = true })
	if f.RestartAfter > 0 {
		env.Sim.At(f.At+f.RestartAfter, func() { l.restart() })
	}
}

// Package chaos is a deterministic, composable fault-injection layer for the
// simulated substrates: every fault threads through the sim clock and draws
// randomness only from a rand.Rand seeded by the owning Plan, so a run is
// fully replayable from (scenario, fault plan, seed) — the FoundationDB style
// of simulation testing applied to SmartConf's control loops.
//
// Faults come in three families:
//
//   - control-loop faults, attached to a Loop (the generic sense → control →
//     actuate pipeline every scenario shim is an instance of): sensor noise,
//     sensor dropout, stale sensor delivery, actuation delay, actuation
//     clamping, controller stall, and controller crash/restart with state
//     re-synthesis from the profile;
//   - plant faults, applied to substrate resources directly: heap capacity
//     shrink, transient heap pressure (a co-tenant spike), and arbitrary
//     plant shifts (worker-pool loss, service-rate degradation) via a
//     substrate-provided mutator;
//   - workload faults: a surge multiplier the driver queries per burst.
//
// A Plan is a named list of faults plus a seed; Arm schedules every fault on
// the simulation before the run starts. Because arming only enqueues events
// on the deterministic clock, two runs of the same (plan, seed) are
// bit-identical — which is what lets chaos results flow through the
// experiment engine's run cache.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"smartconf/internal/sim"
)

// Env binds an armed Plan to one run: the simulation, the plan-seeded random
// source every injector draws from, and (when the plan carries control-loop
// faults) the Loop they attach to.
type Env struct {
	Sim  *sim.Simulation
	Rand *rand.Rand
	Loop *Loop

	surge float64
	// lastKilled remembers the victim index of the most recent InstanceLoss
	// firing (-1 before any), so an InstanceRestart with Victim < 0 can
	// resurrect whichever member the seeded loss chose.
	lastKilled int
}

// SurgeFactor returns the current workload multiplier (1 outside any
// WorkloadSurge window, and on a nil Env, so a driver shared with runs that
// arm no plan needs no branch). Drivers multiply their burst or arrival
// volume by it, which keeps surge injection substrate-agnostic.
func (e *Env) SurgeFactor() float64 {
	if e == nil || e.surge <= 0 {
		return 1
	}
	return e.surge
}

// Fault is one injectable fault. Arm schedules the fault's activation (and
// deactivation, for windowed faults) on the environment's simulation; it must
// be called before the run starts and must not execute substrate code
// directly — only enqueue events.
type Fault interface {
	Name() string
	Arm(env *Env)
}

// Window is a fault's active interval in virtual time. Instantaneous step
// disturbances (a capacity shrink, a plant shift) report Start == End: the
// disturbance persists, but the controller is expected to re-converge after
// the step, so for oracle purposes the "fault" is the step itself.
type Window struct {
	Start, End time.Duration
}

// Plan is a named, seeded fault schedule. The same (Plan, Seed) always
// produces the same injected trajectory.
type Plan struct {
	Name   string
	Seed   int64
	Faults []Fault
}

// Arm seeds the plan's random source and arms every fault against s (and
// loop, for control-loop faults; pass nil when the plan has none). It
// returns the Env drivers query for surge factors.
func (p *Plan) Arm(s *sim.Simulation, loop *Loop) *Env {
	env := &Env{Sim: s, Rand: rand.New(rand.NewSource(p.Seed)), Loop: loop, lastKilled: -1}
	if loop != nil {
		loop.rng = env.Rand
	}
	for _, f := range p.Faults {
		f.Arm(env)
	}
	return env
}

// Windows collects the active window of every fault, in plan order. horizon
// caps open-ended windows (Duration 0 means "until the end of the run").
func (p *Plan) Windows(horizon time.Duration) []Window {
	out := make([]Window, 0, len(p.Faults))
	for _, f := range p.Faults {
		if sp, ok := f.(interface {
			Span(horizon time.Duration) Window
		}); ok {
			out = append(out, sp.Span(horizon))
		} else {
			// A fault that cannot report its window is conservatively active
			// for the whole run.
			out = append(out, Window{Start: 0, End: horizon})
		}
	}
	return out
}

func (p *Plan) String() string {
	names := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		names[i] = f.Name()
	}
	return fmt.Sprintf("%s(seed=%d: %s)", p.Name, p.Seed, strings.Join(names, ","))
}

// span caps an open-ended (zero-duration) window at the horizon.
func span(start, duration, horizon time.Duration) Window {
	if duration <= 0 {
		return Window{Start: start, End: horizon}
	}
	return Window{Start: start, End: start + duration}
}

// loopOf panics with a helpful message when a control-loop fault is armed
// against a plan with no loop.
func loopOf(env *Env, fault string) *Loop {
	if env.Loop == nil {
		panic(fmt.Sprintf("chaos: %s fault armed without a Loop", fault))
	}
	return env.Loop
}

// Package proptest is the property-based testing layer over internal/chaos:
// seed-driven generators for fault plans and workloads, plus reusable
// invariant oracles applied to a Report — the structured outcome of one
// chaos run against any substrate.
//
// The oracles encode what SmartConf promises rather than hand-picked
// expectations:
//
//   - Drains: the simulation reaches its horizon — no deadlock/livelock.
//   - MakesProgress: the substrate completed work despite the faults.
//   - ConfInBounds: every applied knob value stayed within [Min,Max].
//   - HardGoalBounded: the constrained metric exceeded its goal only within
//     a fault window plus the transient settling bound (Eq. 2 converges
//     geometrically with ratio p, so bounded settle time is the contract).
//   - RecoversAfterClearance: after the last fault clears, the metric is
//     back under the goal within K control periods and stays there.
//   - Replays: two runs of the same (plan, seed) are byte-identical.
//
// Any test that can phrase its run as a Report gets the whole oracle set for
// free; the experiments package's chaos harnesses produce Reports for all
// five substrates.
package proptest

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"smartconf/internal/chaos"
	"smartconf/internal/declog"
)

// Sample is one time-series point of a chaos run.
type Sample struct {
	T time.Duration
	V float64
}

// Report is the structured outcome of one chaos run: enough trajectory to
// evaluate every oracle, plus a fingerprint for replay comparison.
type Report struct {
	Substrate string
	Plan      string
	Seed      int64
	Horizon   time.Duration

	// Drained is true when the run reached Horizon (no deadlock/livelock).
	Drained bool
	// Progress counts completed work units (ops, writes, jobs, requests).
	Progress int64
	// Crashed reports a substrate death (OOM, OOD) and when.
	Crashed   bool
	CrashedAt time.Duration

	// Goal is the stepwise constraint target (first sample at T=0; later
	// samples are mid-run goal changes). Upper gives the bound direction.
	Goal  []Sample
	Upper bool

	// Metric and Knob are the constrained-metric and applied-knob traces.
	Metric []Sample
	Knob   []Sample
	// KnobMin and KnobMax are the declared actuator bounds.
	KnobMin, KnobMax float64

	// Faults lists the plan's fault windows (chaos.Plan.Windows).
	Faults []chaos.Window

	Fingerprint string
}

// GoalAt returns the goal in force at time t (the last Goal sample at or
// before t; 0 when the report declares no goal).
func (r *Report) GoalAt(t time.Duration) float64 {
	var g float64
	for _, s := range r.Goal {
		if s.T > t {
			break
		}
		g = s.V
	}
	return g
}

// violated reports whether metric value v breaks the goal g for the report's
// bound direction.
func (r *Report) violated(v, g float64) bool {
	if r.Upper {
		return v > g
	}
	return v < g
}

// ComputeFingerprint hashes the full observable trajectory. Two runs of the
// same (plan, seed) must produce equal fingerprints; the %.17g format makes
// the comparison exact to the last bit of every float64. Each sample is
// encoded into one reused buffer, so the cost does not grow with the run's
// length in allocations.
func (r *Report) ComputeFingerprint() {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%v|%v|%d|%v|%v|", r.Substrate, r.Plan, r.Seed,
		r.Horizon, r.Drained, r.Progress, r.Crashed, r.CrashedAt)
	buf := make([]byte, 0, 64)
	for _, s := range r.Metric {
		buf = appendSample(buf[:0], 'm', s)
		h.Write(buf)
	}
	for _, s := range r.Knob {
		buf = appendSample(buf[:0], 'k', s)
		h.Write(buf)
	}
	r.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
}

// appendSample appends one fingerprinted sample, the bytes of
// fmt's "<tag>%v=%.17g;" with s.T and s.V, without boxing either operand.
func appendSample(buf []byte, tag byte, s Sample) []byte {
	buf = append(buf, tag)
	buf = append(buf, s.T.String()...)
	buf = append(buf, '=')
	buf = strconv.AppendFloat(buf, s.V, 'g', 17, 64)
	return append(buf, ';')
}

// Drains fails when the simulation did not reach its horizon: a wedged
// event loop, a drained scheduler, or a crash-induced stop all surface here.
func Drains(r *Report) error {
	if !r.Drained {
		return fmt.Errorf("%s/%s: simulation did not drain to horizon %v (deadlock/livelock or premature stop)",
			r.Substrate, r.Plan, r.Horizon)
	}
	return nil
}

// MakesProgress fails when fewer than min work units completed: a system
// that survives faults by serving nothing has not survived them.
func MakesProgress(r *Report, min int64) error {
	if r.Progress < min {
		return fmt.Errorf("%s/%s: progress %d < %d — the substrate stopped doing work",
			r.Substrate, r.Plan, r.Progress, min)
	}
	return nil
}

// ConfInBounds fails when any applied knob value left [KnobMin, KnobMax]:
// no fault may push the actuator outside its declared range.
func ConfInBounds(r *Report) error {
	for _, s := range r.Knob {
		if s.V < r.KnobMin || s.V > r.KnobMax {
			return fmt.Errorf("%s/%s: knob %v at %v outside [%v,%v]",
				r.Substrate, r.Plan, s.V, s.T, r.KnobMin, r.KnobMax)
		}
	}
	return nil
}

// HardGoalBounded fails when the constrained metric broke its goal outside
// every fault window's transient allowance [w.Start, w.End+settle], or when
// the substrate crashed at all. settle bounds the Eq. 2 settling transient:
// the controller may overshoot while a fault is active and for at most
// settle afterwards, never in steady state.
func HardGoalBounded(r *Report, settle time.Duration) error {
	if r.Crashed {
		return fmt.Errorf("%s/%s: substrate crashed at %v", r.Substrate, r.Plan, r.CrashedAt)
	}
	for _, s := range r.Metric {
		if !r.violated(s.V, r.GoalAt(s.T)) {
			continue
		}
		if !insideAllowance(r.Faults, s.T, settle) {
			return fmt.Errorf("%s/%s: metric %v at %v breaks goal %v outside every fault window (+%v settle)",
				r.Substrate, r.Plan, s.V, s.T, r.GoalAt(s.T), settle)
		}
	}
	return nil
}

func insideAllowance(windows []chaos.Window, t, settle time.Duration) bool {
	for _, w := range windows {
		if t >= w.Start && t <= w.End+settle {
			return true
		}
	}
	return false
}

// RecoversAfterClearance fails when the metric still breaks the goal more
// than `within` after the last fault window closed: fault clearance must be
// followed by re-convergence within K control periods. Vacuously passes when
// the horizon leaves no post-recovery samples to judge.
func RecoversAfterClearance(r *Report, within time.Duration) error {
	var clear time.Duration
	for _, w := range r.Faults {
		if w.End > clear {
			clear = w.End
		}
	}
	deadline := clear + within
	for _, s := range r.Metric {
		if s.T <= deadline {
			continue
		}
		if r.violated(s.V, r.GoalAt(s.T)) {
			return fmt.Errorf("%s/%s: metric %v at %v still breaks goal %v — no recovery within %v of fault clearance (%v)",
				r.Substrate, r.Plan, s.V, s.T, r.GoalAt(s.T), within, clear)
		}
	}
	return nil
}

// Replays fails when two runs of the same (plan, seed) diverged. This is
// the determinism contract that makes every chaos finding reproducible from
// its seed alone.
func Replays(a, b *Report) error {
	if a.Fingerprint == "" || b.Fingerprint == "" {
		return fmt.Errorf("replay oracle needs computed fingerprints")
	}
	if a.Fingerprint != b.Fingerprint {
		return fmt.Errorf("%s/%s seed %d: replay diverged (%s vs %s)",
			a.Substrate, a.Plan, a.Seed, a.Fingerprint, b.Fingerprint)
	}
	return nil
}

// LogReplays is the decision-log replay oracle: re-executing a captured run
// with zero perturbations must reproduce both the observable trajectory
// (Replays) and the decision log itself, byte for byte — and the envelope's
// fingerprint must be the one the original run computed, so a serialized log
// can always be tied back to its run.
func LogReplays(orig *Report, origEnv declog.Envelope, replay *Report, replayEnv declog.Envelope) error {
	if err := Replays(orig, replay); err != nil {
		return err
	}
	if origEnv.Fingerprint != orig.Fingerprint {
		return fmt.Errorf("%s/%s seed %d: envelope fingerprint %q != run fingerprint %q",
			orig.Substrate, orig.Plan, orig.Seed, origEnv.Fingerprint, orig.Fingerprint)
	}
	a, err := declog.Encode(origEnv)
	if err != nil {
		return fmt.Errorf("%s/%s seed %d: encoding original log: %w", orig.Substrate, orig.Plan, orig.Seed, err)
	}
	b, err := declog.Encode(replayEnv)
	if err != nil {
		return fmt.Errorf("%s/%s seed %d: encoding replayed log: %w", orig.Substrate, orig.Plan, orig.Seed, err)
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s/%s seed %d: zero-perturbation replay produced a different decision log (%d vs %d bytes)",
			orig.Substrate, orig.Plan, orig.Seed, len(a), len(b))
	}
	return nil
}

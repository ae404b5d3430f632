package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"smartconf"
	"smartconf/internal/declog"
	"smartconf/internal/experiments/engine"
	"smartconf/internal/proptest"
)

// This file is the bridge between the chaos matrix and the decision log:
// logged runs (every controller decision captured into a declog ring),
// envelope replay (re-execute a serialized run's coordinates through the
// deterministic engine) and counterfactual cells ("what if the pole were 0.9
// from period k?") for cmd/smartconf-replay.

// DeclogCapacity is the capture ring used for logged chaos runs: large
// enough to keep every decision of the densest harness generation that
// matters for replay, small enough that the ring stays cache-resident.
const DeclogCapacity = 4096

// ChaosHooks carries the optional decision-log wiring into a chaos harness:
// a capture log and/or a counterfactual perturbation for the substrate's
// SmartConf controllers. The nil ChaosHooks means "run exactly as before".
type ChaosHooks struct {
	Log     *declog.Log
	Perturb declog.Perturb
}

// confOpts renders the hooks as construction options for the harness's
// smartconf.New/NewIndirect calls (and their crash-rebuild paths).
func (h *ChaosHooks) confOpts() []smartconf.Option {
	if h == nil {
		return nil
	}
	var opts []smartconf.Option
	if h.Log != nil {
		opts = append(opts, smartconf.WithDecisionLog(h.Log))
	}
	if !h.Perturb.Zero() {
		opts = append(opts, smartconf.WithPerturb(h.Perturb))
	}
	return opts
}

// logRef returns the capture log for the harness's chaos.LoopConfig (nil-safe).
func (h *ChaosHooks) logRef() *declog.Log {
	if h == nil {
		return nil
	}
	return h.Log
}

// RunChaosLogged executes one chaos cell with decision logging on and
// returns both the run report and the serializable decision log. Uncached:
// callers that want the cache go through CounterfactualChaos, whose key
// includes the perturbation.
func RunChaosLogged(substrate, fault string, seed int64, p declog.Perturb) (proptest.Report, declog.Envelope) {
	log := declog.New(DeclogCapacity)
	rep := runChaosCell(substrate, fault, seed, &ChaosHooks{Log: log, Perturb: p})
	return rep, log.Envelope(substrate, rep.Plan, seed, rep.Fingerprint)
}

// RunChaosPropertyLogged is RunChaosProperty with decision logging: the
// seed-generated plan, zero perturbation, a fresh capture log.
func RunChaosPropertyLogged(substrate string, seed int64) (proptest.Report, declog.Envelope) {
	return RunChaosLogged(substrate, ChaosGenerated, seed, declog.Perturb{})
}

// ValidateEnvelopeRun checks that an envelope's run coordinates name a cell
// this build can re-execute. Parse validates the codec-level invariants;
// this validates the semantic ones, so the replay tool fails cleanly on a
// log from an unknown substrate instead of panicking inside the harness
// dispatch.
func ValidateEnvelopeRun(env declog.Envelope) error {
	if chaosIndex(env.Substrate) < 0 {
		return fmt.Errorf("experiments: unknown substrate %q (have %v)", env.Substrate, ChaosSubstrates())
	}
	if env.Plan != ChaosGenerated {
		ok := false
		for _, f := range ChaosFaults() {
			if f == env.Plan {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("experiments: unknown fault plan %q (have %v and %q)", env.Plan, ChaosFaults(), ChaosGenerated)
		}
	}
	return nil
}

// ReplayEnvelope re-executes a logged run from its envelope coordinates with
// a fresh capture ring of the same capacity, optionally perturbed. With a
// zero perturbation the returned envelope is byte-identical to the original
// (the zero-perturbation replay oracle); with a perturbation it is the
// counterfactual run's log.
func ReplayEnvelope(env declog.Envelope, p declog.Perturb) (proptest.Report, declog.Envelope, error) {
	if err := ValidateEnvelopeRun(env); err != nil {
		return proptest.Report{}, declog.Envelope{}, err
	}
	log := declog.New(env.Capacity)
	rep := runChaosCell(env.Substrate, env.Plan, env.Seed, &ChaosHooks{Log: log, Perturb: p})
	return rep, log.Envelope(env.Substrate, rep.Plan, env.Seed, rep.Fingerprint), nil
}

// CounterfactualChaos runs one perturbed chaos cell through the run cache:
// the perturbation is part of the key, so a counterfactual sweep is memoized
// exactly like any other artifact (byte-identical across worker counts, zero
// simulations on a warm disk cache).
func CounterfactualChaos(substrate, fault string, seed int64, p declog.Perturb) proptest.Report {
	return memoKeyed("REPLAY-"+substrate, fault+"|perturb="+p.Key(), "replay", seed, func() proptest.Report {
		return runChaosCell(substrate, fault, seed, &ChaosHooks{Perturb: p})
	})
}

// Counterfactual is one row of the delta artifact: a perturbed re-execution
// of a logged run next to its baseline.
type Counterfactual struct {
	Perturb declog.Perturb
	Report  proptest.Report
}

// RunCounterfactuals fans a perturbation sweep over the engine's worker
// pool, each cell served from the run cache.
func RunCounterfactuals(env declog.Envelope, perturbs []declog.Perturb) ([]Counterfactual, error) {
	if err := ValidateEnvelopeRun(env); err != nil {
		return nil, err
	}
	out := engine.MapSlice(perturbs, func(p declog.Perturb) Counterfactual {
		return Counterfactual{Perturb: p, Report: CounterfactualChaos(env.Substrate, env.Plan, env.Seed, p)}
	})
	return out, nil
}

// RenderCounterfactuals formats the counterfactual-delta artifact: for each
// perturbation, the oracle verdict, the progress and peak-metric deltas
// against the logged baseline, and when the knob trajectory first diverges.
// The trailing fingerprint hashes every row in fixed order — byte-identical
// across worker counts and rebuilds.
func RenderCounterfactuals(env declog.Envelope, base proptest.Report, rows []Counterfactual) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Counterfactual replay: %s/%s seed %d (logged run: %d decisions, %d sources, epoch %d)\n",
		env.Substrate, env.Plan, env.Seed, env.Total, len(env.Sources), env.Epoch)
	fmt.Fprintf(&b, "baseline: verdict %s, progress %d, peak %s %.6g\n",
		ChaosVerdict(&base), base.Progress, metricLabel(base), peakMetric(base))
	fmt.Fprintf(&b, "\n%-28s %-14s %12s %14s %12s\n", "perturbation", "verdict", "Δprogress", "peak-metric", "diverges@")
	for _, r := range rows {
		rep := r.Report
		div := "never"
		if d, ok := firstKnobDivergence(base, rep); ok {
			div = fmt.Sprintf("%ds", int(d/time.Second))
		}
		fmt.Fprintf(&b, "%-28s %-14s %+12d %14.6g %12s\n",
			r.Perturb.Key(), ChaosVerdict(&rep), rep.Progress-base.Progress, peakMetric(rep), div)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "base=%s;", base.Fingerprint)
	for _, r := range rows {
		fmt.Fprintf(h, "%s=%s;", r.Perturb.Key(), r.Report.Fingerprint)
	}
	fmt.Fprintf(&b, "\nreplay: each row is a pure function of (substrate, plan, seed, perturbation); artifact fingerprint %016x\n", h.Sum64())
	return b.String()
}

func metricLabel(r proptest.Report) string {
	if r.Crashed {
		return "(crashed)"
	}
	return "metric"
}

func peakMetric(r proptest.Report) float64 {
	var peak float64
	for _, s := range r.Metric {
		if s.V > peak {
			peak = s.V
		}
	}
	return peak
}

// firstKnobDivergence returns the time of the first knob sample where the
// two runs disagree (or one trace ends before the other).
func firstKnobDivergence(a, b proptest.Report) (time.Duration, bool) {
	n := len(a.Knob)
	if len(b.Knob) < n {
		n = len(b.Knob)
	}
	for i := 0; i < n; i++ {
		if a.Knob[i].T != b.Knob[i].T || a.Knob[i].V != b.Knob[i].V {
			return a.Knob[i].T, true
		}
	}
	if len(a.Knob) != len(b.Knob) {
		if n == 0 {
			return 0, true
		}
		return a.Knob[n-1].T, true
	}
	return 0, false
}

package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/declog"
	"smartconf/internal/experiments/engine"
	"smartconf/internal/proptest"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// The chaos matrix runs every substrate's SmartConf control loop through the
// injector catalog and judges each run with the proptest oracle set. Every
// cell is a pure function of (substrate, fault, seed) — the same determinism
// contract as the figure artifacts — so cells are served from the engine run
// cache and any verdict reproduces from its coordinates alone.

// ChaosGenerated is the pseudo-fault name selecting a seed-generated plan
// (proptest.GenPlan) instead of a named catalog entry. The property tests
// use it; the bench matrix sticks to the named catalog.
const ChaosGenerated = "gen"

// ChaosSeed is the seed of the bench's chaos artifact.
const ChaosSeed = 1

// chaosRegistry is the matrix's row list, in fixed order: each controlled
// substrate's oracle tolerances (see ChaosOracleParams) and its cell's rig,
// built by the issue's own rig constructor with the cell's seeds, horizon
// and calibration. A new substrate costs one rig constructor and one row.
var chaosRegistry = []struct {
	name   string
	params ChaosOracleParams
	rig    func(s *sim.Simulation, fault string, seed int64) *rig
}{
	{"HB2149", ChaosOracleParams{Settle: 90 * time.Second, Recover: 90 * time.Second, MinProgress: 1000}, func(s *sim.Simulation, _ string, seed int64) *rig {
		return newHB2149Rig(s, 300*time.Second,
			workload.NewYCSB(seed+21490, 1000, workload.YCSBPhase{Name: "write-heavy", WriteRatio: 1, RequestBytes: 1 * mb}))
	}},
	{"HB3813", ChaosOracleParams{Settle: 45 * time.Second, Recover: 60 * time.Second, MinProgress: 1000}, func(s *sim.Simulation, _ string, seed int64) *rig {
		rg, _ := hb3813Run{seed: seed + 38130, genSeed: seed + 38131,
			phases: []workload.YCSBPhase{{Name: "write-heavy", WriteRatio: 1, RequestBytes: 1 * mb}},
			burst:  hb3813BurstSize, every: hb3813BurstEvery, spacing: hb3813Spacing, horizon: 300 * time.Second}.rig(s)
		return rg
	}},
	{"HD4995", ChaosOracleParams{Settle: 120 * time.Second, Recover: 120 * time.Second, MinProgress: 2}, func(s *sim.Simulation, _ string, seed int64) *rig {
		return newHD4995Rig(s, 360*time.Second, 90*time.Second, seed+49950)
	}},
	{"LLMKV", ChaosOracleParams{Settle: 60 * time.Second, Recover: 90 * time.Second, MinProgress: 500}, func(s *sim.Simulation, fault string, seed int64) *rig {
		return newLLMKVRig(s, 300*time.Second, seed+90010, seed+90011, llmkvChaosPhases(fault))
	}},
	{"MR2820", ChaosOracleParams{Settle: 60 * time.Second, Recover: 120 * time.Second, MinProgress: 6}, func(s *sim.Simulation, _ string, seed int64) *rig {
		// The scenario's co-tenant walk, calibrated slightly below the
		// figure run (step 25 MB, band top 720 MB): a single co-tenant step
		// larger than the goal's 10 MB headroom can OOD an already-admitted
		// task no matter what the controller does, so the property "no
		// crash for ANY seed" requires the disturbance to stay within the
		// margin the goal engineered — the figure scenario acknowledges the
		// same race by judging over a 5-seed repetition instead. The
		// horizon is a safety bound; the jobs end far earlier.
		return newMR2820Rig(s, 3600*time.Second, seed+28200, mr2820Walk{high: 720 * mb, step: 25 * mb, haltAtOOD: true})
	}},
}

// chaosIndex returns the registry row of a substrate, or -1.
func chaosIndex(substrate string) int {
	for i, r := range chaosRegistry {
		if r.name == substrate {
			return i
		}
	}
	return -1
}

// ChaosSubstrates lists the matrix rows (all five substrates, fixed order).
func ChaosSubstrates() []string {
	names := make([]string, len(chaosRegistry))
	for i, r := range chaosRegistry {
		names[i] = r.name
	}
	return names
}

// ChaosFaults lists the matrix columns: the named injector catalog. Loop
// faults mean the same thing everywhere; plant-shift and surge are bound to
// a substrate-specific disturbance in each harness (worker loss, flush-rate
// drop, lock-cost increase, decode-amplification shift, co-tenant surge).
func ChaosFaults() []string {
	return []string{
		"sensor-noise", "sensor-dropout", "act-delay",
		"ctrl-stall", "crash-restart", "plant-shift", "surge",
	}
}

// ChaosCell names one matrix cell.
type ChaosCell struct {
	Substrate string
	Fault     string
	Seed      int64
}

// RunChaosCell executes one cell through the run cache: repeated matrix
// builds (and overlapping cells across worker counts) are served without
// re-simulation, which is sound because cells are deterministic in the key.
func RunChaosCell(cell ChaosCell) proptest.Report {
	return memoKeyed("CHAOS-"+cell.Substrate, cell.Fault, "chaos", cell.Seed, func() proptest.Report {
		return runChaosCell(cell, cell.newRig(), nil, declog.Perturb{})
	})
}

// RunChaosProperty runs a substrate under the seed-generated fault plan,
// bypassing the run cache: the replay oracle needs two genuine executions.
func RunChaosProperty(substrate string, seed int64) proptest.Report {
	cell := ChaosCell{substrate, ChaosGenerated, seed}
	return runChaosCell(cell, cell.newRig(), nil, declog.Perturb{})
}

// newRig builds the cell's rig on a fresh simulation.
func (c ChaosCell) newRig() *rig {
	i := chaosIndex(c.Substrate)
	if i < 0 {
		panic(fmt.Sprintf("chaos: unknown substrate %q", c.Substrate))
	}
	return chaosRegistry[i].rig(newScenarioSim(), c.Fault, c.Seed)
}

// runChaosCell runs one cell on r, the cell's rig: its control loop under
// the fault plan, probed once a second. It registers the loop's tick at the
// decision site, the plan, the probe, the disturbance and the load, in that
// order. log (nil for production cells) captures every decision, and p
// (zero for production cells) is a counterfactual perturbation of the
// substrate's SmartConf controllers.
func runChaosCell(cell ChaosCell, r *rig, log *declog.Log, p declog.Perturb) proptest.Report {
	var opts []smartconf.Option
	if log != nil {
		opts = append(opts, smartconf.WithDecisionLog(log))
	}
	if !p.Zero() {
		opts = append(opts, smartconf.WithPerturb(p))
	}
	s := r.s
	loop := chaos.NewLoop(s, chaos.LoopConfig{
		Sense:   r.sense,
		Step:    r.synth(opts),
		Actuate: r.actuate,
		// Crash recovery: state is re-synthesized from the persisted
		// profile; the §5.3 deputy-based update re-anchors on the first
		// post-restart sample, so no controller state needs to survive.
		Rebuild: func() func(perf, deputy float64) float64 { return r.synth(opts) },
		Log:     log,
	})
	r.attach(loop.Tick)

	active := r.active
	if active == 0 {
		active = r.horizon
	}
	plan := chaosPlanFor(cell.Fault, cell.Seed, active, r)
	env := plan.Arm(s, loop)
	rep := &proptest.Report{
		Substrate: cell.Substrate, Plan: plan.Name, Seed: cell.Seed, Horizon: r.horizon,
		Goal: r.goal, Upper: true, KnobMin: r.knobLo, KnobMax: r.knobHi,
		Faults: plan.Windows(active),
	}
	metric, knob := r.probe[0].sample, r.probe[1].sample
	s.Every(time.Second, time.Second, func() bool {
		if v, ok := metric(); ok {
			rep.Metric = append(rep.Metric, proptest.Sample{T: s.Now(), V: v})
		}
		v, _ := knob()
		rep.Knob = append(rep.Knob, proptest.Sample{T: s.Now(), V: v})
		return r.more()
	})
	if r.disturb != nil {
		r.disturb(env)
	}
	r.load(env)
	s.RunUntil(r.horizon)

	rep.Drained = s.Now() >= r.horizon
	r.finish(rep)
	rep.ComputeFingerprint()
	return *rep
}

// ChaosMatrix runs the full fault × substrate matrix, fanned out across the
// experiment engine's worker pool.
func ChaosMatrix(seed int64) []proptest.Report {
	var cells []ChaosCell
	for _, f := range ChaosFaults() {
		for _, s := range ChaosSubstrates() {
			cells = append(cells, ChaosCell{Substrate: s, Fault: f, Seed: seed})
		}
	}
	return engine.MapSlice(cells, RunChaosCell)
}

// ChaosOracleParams bundles the per-substrate oracle tolerances: Settle
// bounds the post-fault settling transient (a few control periods — flush
// cycles for HB2149, du lock holds for HD4995, the 15 s sense cadence for
// LLMKV), Recover bounds re-convergence after the last fault clears, and
// MinProgress is the work floor below which "survived" would be vacuous.
type ChaosOracleParams struct {
	Settle      time.Duration
	Recover     time.Duration
	MinProgress int64
}

// ChaosParams returns the oracle tolerances for a substrate.
func ChaosParams(substrate string) ChaosOracleParams {
	i := chaosIndex(substrate)
	if i < 0 {
		panic(fmt.Sprintf("chaos: unknown substrate %q", substrate))
	}
	return chaosRegistry[i].params
}

// ChaosVerdict applies the oracle set to a report and returns "ok" or
// "FAIL:<first-broken-invariant>".
func ChaosVerdict(r *proptest.Report) string {
	p := ChaosParams(r.Substrate)
	checks := []struct {
		label string
		err   error
	}{
		{"deadlock", proptest.Drains(r)},
		{"no-progress", proptest.MakesProgress(r, p.MinProgress)},
		{"conf-bounds", proptest.ConfInBounds(r)},
		{"goal", proptest.HardGoalBounded(r, p.Settle)},
		{"no-recovery", proptest.RecoversAfterClearance(r, p.Recover)},
	}
	for _, c := range checks {
		if c.err != nil {
			return "FAIL:" + c.label
		}
	}
	return "ok"
}

// RenderChaos formats the matrix. The trailing fingerprint hashes every
// cell's trajectory fingerprint in fixed order: byte-identical across worker
// counts and across repeated builds of the same seed.
func RenderChaos(reports []proptest.Report) string {
	subs := ChaosSubstrates()
	faults := ChaosFaults()
	idx := map[string]proptest.Report{}
	var seed int64
	for _, r := range reports {
		idx[r.Substrate+"/"+r.Plan] = r
		seed = r.Seed
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos matrix: invariant verdicts per injected fault (seed %d)\n", seed)
	fmt.Fprintln(&b, "oracles: drains, makes-progress, conf-in-bounds, goal-bounded(+settle), recovers-after-clearance")
	fmt.Fprintf(&b, "\n%-16s", "fault")
	for _, s := range subs {
		fmt.Fprintf(&b, " %-12s", s)
	}
	fmt.Fprintln(&b)
	for _, f := range faults {
		fmt.Fprintf(&b, "%-16s", f)
		for _, sub := range subs {
			cell := "-"
			if r, ok := idx[sub+"/"+f]; ok {
				cell = ChaosVerdict(&r)
			}
			fmt.Fprintf(&b, " %-12s", cell)
		}
		fmt.Fprintln(&b)
	}
	h := fnv.New64a()
	for _, f := range faults {
		for _, sub := range subs {
			if r, ok := idx[sub+"/"+f]; ok {
				fmt.Fprintf(h, "%s/%s=%s;", sub, f, r.Fingerprint)
			}
		}
	}
	fmt.Fprintf(&b, "\nreplay: each cell is a pure function of (substrate, fault, seed); matrix fingerprint %016x\n", h.Sum64())
	return b.String()
}

// chaosTune sets per-substrate loop-fault amplitudes: each scenario is
// stressed at the edge of, not beyond, its engineered margin (a sensor-noise
// sigma that routinely OOMs a hard-goal substrate would test the margin's
// size, not the controller).
type chaosTune struct {
	noise float64       // sensor-noise sigma
	drop  float64       // sensor-dropout probability
	delay time.Duration // actuation delay
	stall time.Duration // controller stall / crash outage
}

// windowedShift is a plant disturbance with a clearance: apply at Start,
// revert at Start+Duration. Defined here rather than in internal/chaos to
// exercise the Fault extension point — substrates can grow their own fault
// types without touching the injector package. A PERMANENT gain shift is
// deliberately not in the catalog: a controller synthesized from a stale
// profile keeps a residual oscillation forever (the paper's remedy is
// re-profiling, §6), so "inject and never clear" would test the profile's
// staleness, not the controller.
type windowedShift struct {
	label    string
	start    time.Duration
	duration time.Duration
	apply    func()
	revert   func()
}

func (f windowedShift) Name() string { return "plant-shift:" + f.label }

func (f windowedShift) Span(time.Duration) chaos.Window {
	return chaos.Window{Start: f.start, End: f.start + f.duration}
}

func (f windowedShift) Arm(env *chaos.Env) {
	env.Sim.At(f.start, f.apply)
	env.Sim.At(f.start+f.duration, f.revert)
}

// directStep and indirectStep adapt a synthesized controller to a chaos
// loop's step: feed the measurement, read back the unrounded knob value.
func directStep(c *smartconf.Conf) func(perf, deputy float64) float64 {
	return func(perf, _ float64) float64 { c.SetPerf(perf); return c.Value() }
}

func indirectStep(c *smartconf.IndirectConf) func(perf, deputy float64) float64 {
	return func(perf, deputy float64) float64 { c.SetPerf(perf, deputy); return c.Value() }
}

// chaosPlanFor resolves a fault name to a plan: "gen" draws from the
// property-test generator, loop faults come from the shared catalog with the
// substrate's tune, and plant-shift and surge from the rig. Catalog faults
// strike a third of the way into the fault-placement window and last 60 s.
func chaosPlanFor(fault string, seed int64, active time.Duration, r *rig) *chaos.Plan {
	if fault == ChaosGenerated {
		return proptest.GenPlan(fault, seed, active, r.knobLo, r.knobHi)
	}
	start, dur, tune := active/3, 60*time.Second, r.tune
	var f chaos.Fault
	switch fault {
	case "sensor-noise":
		f = chaos.SensorNoise{Start: start, Duration: dur, Sigma: tune.noise}
	case "sensor-dropout":
		f = chaos.SensorDropout{Start: start, Duration: dur, Prob: tune.drop}
	case "act-delay":
		f = chaos.ActuationDelay{Start: start, Duration: dur, Delay: tune.delay}
	case "ctrl-stall":
		f = chaos.ControllerStall{Start: start, Duration: tune.stall}
	case "crash-restart":
		f = chaos.ControllerCrash{At: start, RestartAfter: tune.stall}
	case "plant-shift":
		f = r.shift(start, dur)
	case "surge":
		f = chaos.WorkloadSurge{Start: start, Duration: dur, Factor: r.surge}
	default:
		panic(fmt.Sprintf("chaos: unknown fault %q", fault))
	}
	return &chaos.Plan{Name: fault, Seed: seed, Faults: []chaos.Fault{f}}
}

func samplesToPoints(ss []proptest.Sample) []Point {
	ps := make([]Point, len(ss))
	for i, s := range ss {
		ps[i] = Point{T: s.T, V: s.V}
	}
	return ps
}

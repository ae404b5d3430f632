package experiments

import (
	"math/rand"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/core"
	"smartconf/internal/memsim"
	"smartconf/internal/proptest"
	"smartconf/internal/rpcserver"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// HB3813: ipc.server.max.queue.size bounds the RPC call queue. Queued and
// in-flight payloads live on the heap, so the bound indirectly caps memory
// (hard OOM constraint); but the deeper the queue, the bigger the dispatch
// batches and the higher the throughput (the trade-off metric).
//
// Paper flags: N-N-Y (always-on, indirect, hard).

const (
	hb3813RunTime     = 700 * time.Second
	hb3813PhaseShift  = 350 * time.Second // workload shifts mid-run
	hb3813BurstSize   = 300
	hb3813BurstEvery  = 7500 * time.Millisecond // 40 ops/s offered
	hb3813Spacing     = 2 * time.Millisecond
	hb3813ProfileStep = 60 * time.Second
)

func hb3813Phases() []workload.YCSBPhase {
	return []workload.YCSBPhase{
		{Name: "phase-1", Duration: hb3813PhaseShift, WriteRatio: 1.0, RequestBytes: 1 * mb},
		{Name: "phase-2", WriteRatio: 1.0, RequestBytes: 2 * mb},
	}
}

// hb3813Spec declares the memory controller every HB3813 harness builds.
func hb3813Spec() smartconf.Spec {
	return smartconf.Spec{
		Name:    "ipc.server.max.queue.size",
		Metric:  "memory_consumption",
		Goal:    float64(rpcMemoryGoal),
		Hard:    true,
		Initial: 0, // the paper's deliberately poor starting value (Fig. 6c)
		Min:     0, Max: 5000,
	}
}

// newHB3813Conf synthesizes the controller from the profiling campaign.
func newHB3813Conf(opts ...smartconf.Option) *smartconf.IndirectConf {
	return mustSynth(smartconf.NewIndirect(hb3813Spec(), publicProfile(ProfileHB3813()), nil, opts...))
}

// hb3813Plant is the HB3813 substrate on one simulation: the region
// server's heap and RPC server, the source of its heap noise, and the time
// it ran out of memory.
type hb3813Plant struct {
	s     *sim.Simulation
	rng   *rand.Rand
	heap  *memsim.Heap
	sv    *rpcserver.Server
	oomAt time.Duration
}

// newHB3813Plant builds the substrate with the queue bound at 0, the value
// every policy starts from.
func newHB3813Plant(s *sim.Simulation, rng *rand.Rand) *hb3813Plant {
	p := &hb3813Plant{s: s, rng: rng, heap: memsim.NewHeap(rpcHeapCapacity)}
	p.sv = rpcserver.New(s, p.heap, rpcConfig())
	p.sv.SetMaxQueue(0)
	p.heap.OnOOM(func() { p.oomAt = s.Now() })
	return p
}

// sense reads the constrained metric (heap in use) and its deputy (the
// call-queue length).
func (p *hb3813Plant) sense() (float64, float64) {
	return float64(p.heap.Used()), float64(p.sv.QueueLen())
}

func (p *hb3813Plant) offer(op workload.Op) { p.sv.Offer(op) }

// integrate installs the SmartConf integration at the enqueue site. The
// paper's Table 7 counts exactly this kind of code (sensor read,
// setPerf/getConf calls at the knob site).
func (p *hb3813Plant) integrate(ic *smartconf.IndirectConf) {
	p.sv.BeforeAdmit = func() {
		ic.SetPerf(p.sense())       //sc:HB3813:sensor
		p.sv.SetMaxQueue(ic.Conf()) //sc:HB3813:invoke
	}
}

// hb3813Run is one HB3813 workload with its rng provenance explicit: seed
// feeds the heap noise and the burst jitter, genSeed the YCSB operation
// stream. Each harness keeps its own pair (DESIGN.md §5d), which is what
// keeps every artifact byte-identical.
type hb3813Run struct {
	seed, genSeed  int64
	phases         []workload.YCSBPhase
	burst          int
	every, spacing time.Duration
	horizon        time.Duration
}

// hb3813Figure is the two-phase evaluation behind Table 6 and Figures 5–6;
// the ablation arms replay it under other knob rules.
func hb3813Figure() hb3813Run {
	return hb3813Run{seed: 3813, genSeed: 3814, phases: hb3813Phases(),
		burst: hb3813BurstSize, every: hb3813BurstEvery, spacing: hb3813Spacing, horizon: hb3813RunTime}
}

// plant builds the substrate on a fresh simulation, seeded by the run.
func (r hb3813Run) plant() *hb3813Plant {
	return newHB3813Plant(newScenarioSim(), rand.New(rand.NewSource(r.seed)))
}

// noise registers the heap's "other objects" walk for the run.
func (r hb3813Run) noise(p *hb3813Plant) { heapNoise(p.s, p.heap, p.rng, rpcNoiseMax, r.horizon) }

// load registers the burst driver: every burst scales by env's surge factor
// (nil: none) and offer receives each operation.
func (r hb3813Run) load(s *sim.Simulation, rng *rand.Rand, env *chaos.Env, offer func(workload.Op)) {
	w := &rpcWorkload{gen: workload.NewYCSB(r.genSeed, 1000, r.phases[0]), burstSize: r.burst,
		burstEvery: r.every, spacing: r.spacing, phases: r.phases, env: env}
	w.run(s, r.horizon, rng, offer)
}

// rig builds the run's rig on s; pl is its plant, for ablation installers.
// HB3813's figure run changes no goal.
func (r hb3813Run) rig(s *sim.Simulation) (rg *rig, pl *hb3813Plant) {
	pl = newHB3813Plant(s, rand.New(rand.NewSource(r.seed)))
	return &rig{
		s: s, horizon: r.horizon,
		smart:   func() func(float64) { pl.integrate(newHB3813Conf()); return nil },
		actuate: func(v float64) { pl.sv.SetMaxQueue(int(v)) },
		disturb: func(*chaos.Env) { r.noise(pl) },
		load:    func(env *chaos.Env) { r.load(s, pl.rng, env, pl.offer) },
		probe: rpcColumns(pl.heap, pl.sv, "max.queue.size",
			func() (float64, bool) { return float64(pl.sv.MaxQueue()), true }),
		more:    func() bool { return s.Now() < r.horizon && !pl.heap.OOM() },
		samples: int(r.horizon / time.Second),
		judge: func(res *Result) {
			res.Issue = "HB3813"
			judgeRPC(res, pl.sv, pl.heap, pl.oomAt, r.horizon, constGoal(rpcMemoryGoal))
		},
		cell: func() cellParts {
			return cellParts{
				attach: func(tick func()) { pl.sv.BeforeAdmit = tick },
				tune:   chaosTune{noise: 0.05, drop: 0.8, delay: 2 * time.Second, stall: 45 * time.Second},
				knobLo: 0, knobHi: 5000,
				goal:  []proptest.Sample{{T: 0, V: float64(rpcMemoryGoal)}},
				surge: 2,
				synth: func(opts []smartconf.Option) func(perf, deputy float64) float64 {
					return indirectStep(newHB3813Conf(opts...))
				},
				sense: pl.sense,
				// Plant shift: half the worker pool disappears (drain rate
				// drops).
				shift: func(start, _ time.Duration) chaos.Fault {
					return chaos.PlantShift{Label: "worker-loss", At: start, Apply: func() { pl.sv.SetWorkers(pl.sv.Workers() / 2) }}
				},
				finish: func(rep *proptest.Report) {
					rep.Progress, rep.Crashed, rep.CrashedAt = pl.sv.Completed(), pl.heap.OOM(), pl.oomAt
				},
			}
		},
	}, pl
}

// evaluate runs the workload through the figure runner; install, when
// non-nil, wires an ablation arm's knob rule into the plant in place of p's
// own, and p then only labels the Result.
func (r hb3813Run) evaluate(p Policy, install func(*hb3813Plant)) Result {
	rg, pl := r.rig(newScenarioSim())
	if install == nil {
		return rg.runFigure(p, nil)
	}
	return rg.runFigure(p, func() { install(pl) })
}

// run evaluates the workload under a Policy. Figure 7 runs its less stable
// workload (steady overload instead of bursts, with a mid-run size jump)
// through here too.
func (r hb3813Run) run(p Policy) Result {
	if p.Kind == StaticPolicy || p.Kind == SmartConfPolicy && p.FixedPole == 0 {
		return r.evaluate(p, nil)
	}
	// The Figure 7 study: pinned-pole SmartConf and the two ablations.
	return r.evaluate(p, func(pl *hb3813Plant) {
		ctrl := mustSynth(ablationController(p.Kind, ProfileHB3813(), float64(rpcMemoryGoal), p.FixedPole))
		// All three controllers sample at the same 1 Hz cadence so the
		// only differences under test are the §5.2 mechanisms themselves
		// (virtual goal, danger-region pole). SmartConf additionally
		// applies the §5.3 indirect-configuration treatment (update from
		// the deputy's current value); the baselines are classic
		// incremental controllers.
		pl.s.Every(time.Second, time.Second, func() bool {
			if pl.sv.Crashed() {
				return false
			}
			if p.Kind == SmartConfPolicy {
				ctrl.SetConf(float64(pl.sv.QueueLen()))
			}
			pl.sv.SetMaxQueue(int(ctrl.Update(float64(pl.heap.Used()))))
			return pl.s.Now() < r.horizon
		})
	})
}

// ProfileHB3813 runs the paper's profiling campaign: the PROFILING workload
// (YCSB 1.0W, 1 MB — distinct from the evaluation's two-phase workload) with
// ipc.server.max.queue.size pinned at 40, 80, 120 and 160 (the paper's
// values), collecting 10 heap measurements per setting, taken at enqueue
// time as §6.1 describes.
func ProfileHB3813() core.Profile {
	return memoProfile("HB3813", func() core.Profile {
		return profileSweep([]float64{40, 80, 120, 160}, func(setting float64, record func(setting, measurement float64)) {
			r := hb3813Run{seed: 3813, genSeed: 3813,
				phases: []workload.YCSBPhase{{Name: "profiling", WriteRatio: 1, RequestBytes: 1 * mb}},
				burst:  hb3813BurstSize, every: hb3813BurstEvery, spacing: hb3813Spacing, horizon: hb3813ProfileStep}
			p := r.plant()
			p.sv.SetMaxQueue(int(setting))
			r.noise(p)

			enqueues, taken := 0, 0
			p.sv.BeforeAdmit = func() {
				enqueues++
				// Spread 10 samples across the window: one every ~200 enqueues.
				if enqueues%200 == 0 && taken < 10 {
					record(setting, float64(p.heap.Used()))
					taken++
				}
			}
			r.load(p.s, p.rng, nil, p.offer)
			p.s.RunUntil(r.horizon)
		})
	})
}

// RunHB3813 executes the two-phase evaluation under the given policy.
func RunHB3813(p Policy) Result { return hb3813Figure().run(p) }

// HB3813Scenario returns the scenario descriptor.
func HB3813Scenario() Scenario {
	return Scenario{
		ID:                "HB3813",
		Conf:              "ipc.server.max.queue.size",
		Description:       "limits RPC-call queue size; too big, OOM; too small, read/write throughput hurts",
		Flags:             "N-N-Y",
		ConstraintName:    "memory ≤ 495MB (hard, no OOM)",
		TradeoffName:      "completed ops/s",
		HigherIsBetter:    true,
		ProfilingWorkload: "YCSB 1.0W, 1MB @ queue 40/80/120/160",
		PhaseWorkloads:    [2]string{"YCSB 1.0W, 1MB", "YCSB 1.0W, 2MB"},
		BuggyDefault:      1000, // the pre-patch default
		PatchDefault:      100,  // the patched default — still fails phase 2
		StaticGrid:        []float64{10, 25, 50, 75, 90, 110, 130, 150, 200, 300},
		NonOptimal:        25,
		Run:               RunHB3813,
	}
}

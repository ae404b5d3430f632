package experiments

import (
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/core"
	"smartconf/internal/kvstore"
	"smartconf/internal/memsim"
	"smartconf/internal/proptest"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// HB2149: global.memstore.lowerLimit decides how much memstore data each
// blocking flush drains (expressed here as the flushed fraction of the upper
// watermark). Flushing a lot blocks writers for a long time — the user's
// worst-case block-time constraint; flushing a little pays the per-flush
// fixed cost constantly, hurting write throughput.
//
// This is the paper's goal-change scenario: mid-run the user tightens the
// block-time goal from 10 s to 5 s (Table 6's "1.0W, 1MB, 10s" → "…, 5s").
//
// Paper flags: Y-Y-N (conditional, direct, soft).

const (
	hb2149RunTime    = 700 * time.Second
	hb2149PhaseShift = 350 * time.Second
	hb2149Goal1      = 10.0 // seconds of worst-case write block
	hb2149Goal2      = 5.0
	hb2149Grace      = 60 * time.Second // one flush cycle to converge after setGoal
	hb2149WriteEvery = 100 * time.Millisecond
)

func hb2149Config() kvstore.MemstoreConfig {
	return kvstore.MemstoreConfig{
		UpperLimitBytes:    256 * mb,
		FlushBytesPerSec:   64 * mb,
		FlushFixedOverhead: 4 * time.Second,
		WriteBaseLatency:   2 * time.Millisecond,
		BaseHeapBytes:      64 * mb,
	}
}

// hb2149Block predicts the block time for a flush fraction under the
// configured store (for grid/default documentation; the controller learns
// this from profiling, not from this formula).
func hb2149Block(fraction float64) float64 {
	cfg := hb2149Config()
	return cfg.FlushFixedOverhead.Seconds() + fraction*float64(cfg.UpperLimitBytes)/float64(cfg.FlushBytesPerSec)
}

// hb2149Spec declares the flush-fraction controller.
func hb2149Spec() smartconf.Spec {
	return smartconf.Spec{
		Name:    "global.memstore.lowerLimit",
		Metric:  "write_block_time",
		Goal:    hb2149Goal1,
		Hard:    false, // soft constraint: SLA-style, occasional excursions tolerated
		Initial: 0.5,
		Min:     0.01, Max: 1,
	}
}

func newHB2149Conf(opts ...smartconf.Option) *smartconf.Conf {
	return mustSynth(smartconf.New(hb2149Spec(), publicProfile(ProfileHB2149()), opts...))
}

// newHB2149Store builds the memstore (on a heap big enough that memory is
// never the constraint) with the flush fraction at fraction.
func newHB2149Store(s *sim.Simulation, fraction float64) *kvstore.Memstore {
	return kvstore.NewMemstore(s, memsim.NewHeap(2<<30), hb2149Config(), fraction)
}

// hb2149Sense reads the sensor: the block time of the last completed flush.
func hb2149Sense(st *kvstore.Memstore) float64 { return st.BlockTimes().Last().Seconds() }

// hb2149OnFlush installs a control step at the flush site, where it runs
// only when a flush actually triggers (§4.2 — the natural call sites ARE
// the condition). The sensor reads the PREVIOUS flush's block time, and the
// run's first flush has none: the tracker's zero value would be a phantom
// "0 s block" that reads "goal comfortably met" and pushes the knob off
// fabricated data. So until a flush has completed (Count() == 0) the hook
// holds the Initial fraction. The figure run and the chaos cell both
// install their step here.
func hb2149OnFlush(st *kvstore.Memstore, step func()) {
	st.BeforeFlush = func() {
		if st.BlockTimes().Count() > 0 {
			step()
		}
	}
}

// ProfileHB2149 profiles block duration against the pinned flush fraction
// under the profiling workload (YCSB 1.0W, 1 MB).
func ProfileHB2149() core.Profile {
	return memoProfile("HB2149", func() core.Profile {
		return profileSweep([]float64{0.2, 0.4, 0.6, 0.8}, func(setting float64, record func(setting, measurement float64)) {
			s := newScenarioSim()
			st := newHB2149Store(s, setting)
			taken := 0
			gen := workload.NewYCSB(2149, 1000, workload.YCSBPhase{WriteRatio: 1, RequestBytes: 1 * mb})
			s.Every(0, hb2149WriteEvery, func() bool {
				st.Write(gen.NextOp().Bytes)
				// One measurement per completed flush, up to 10.
				if n := st.BlockTimes().Count(); int(n) > taken && taken < 10 {
					record(setting, st.BlockTimes().Last().Seconds())
					taken = int(n)
				}
				return taken < 10 && !st.Crashed()
			})
			s.Run()
		})
	})
}

// RunHB2149 executes the two-phase evaluation under the given policy.
func RunHB2149(p Policy) Result {
	gen := workload.NewYCSB(2150, 1000, workload.YCSBPhase{WriteRatio: 1, RequestBytes: 1 * mb})
	return newHB2149Rig(newScenarioSim(), hb2149RunTime, gen).runFigure(p, nil)
}

// newHB2149Rig builds the memstore at the Initial flush fraction on s; the
// load is one write from gen per tick until horizon. The figure run
// tightens the block-time goal at the phase shift.
func newHB2149Rig(s *sim.Simulation, horizon time.Duration, gen *workload.YCSB) *rig {
	st := newHB2149Store(s, 0.5)
	return &rig{
		s: s, horizon: horizon,
		smart: func() func(float64) {
			sc := newHB2149Conf()
			hb2149OnFlush(st, func() {
				last := hb2149Sense(st)         //sc:HB2149:sensor
				sc.SetPerf(last)                //sc:HB2149:invoke
				st.SetFlushFraction(sc.Value()) //sc:HB2149:invoke
			})
			return sc.SetGoal
		},
		actuate: st.SetFlushFraction,
		// Each tick's write repeats env's surge factor times, until the
		// horizon or a crash.
		load: func(env *chaos.Env) {
			s.Every(0, hb2149WriteEvery, func() bool {
				for i := 0; i < int(env.SurgeFactor()+0.5); i++ {
					st.Write(gen.NextOp().Bytes)
				}
				return s.Now() < horizon && !st.Crashed()
			})
		},
		probe: []column{
			{Series{Name: "block_time", Unit: "s"}, newSamples(st.BlockTimes())},
			{Series{Name: "flush_fraction", Unit: "fraction"}, func() (float64, bool) { return st.FlushFraction(), true }},
			{Series{Name: "write_throughput", Unit: "ops/s"}, func() (float64, bool) { return st.Throughput(), true }},
		},
		more:    func() bool { return s.Now() < horizon && !st.Crashed() },
		samples: int(horizon / time.Second),
		goalAt:  hb2149PhaseShift, goal2: hb2149Goal2,
		judge: func(res *Result) {
			res.Issue, res.TradeoffName, res.HigherIsBetter = "HB2149", "write throughput (ops/s)", true
			res.Tradeoff = float64(st.Writes()) / horizon.Seconds()
			judgeSoftGoal(res, "block", func(t time.Duration) float64 {
				if t < hb2149PhaseShift+hb2149Grace {
					return hb2149Goal1
				}
				return hb2149Goal2
			})
		},
		cell: func() cellParts {
			return cellParts{
				attach: func(tick func()) { hb2149OnFlush(st, tick) },
				tune:   chaosTune{noise: 0.08, drop: 0.7, delay: 3 * time.Second, stall: 60 * time.Second},
				knobLo: 0.01, knobHi: 1,
				// Soft goal: SLA-like, judged with the scenario's 5% slack.
				goal:  []proptest.Sample{{T: 0, V: hb2149Goal1 * 1.05}},
				surge: 2,
				synth: func(opts []smartconf.Option) func(perf, deputy float64) float64 {
					return directStep(newHB2149Conf(opts...))
				},
				sense: func() (float64, float64) { return hb2149Sense(st), 0 },
				// Plant shift: the flush drain rate drops (disk contention),
				// 64→36 MB/s: a 1.78× gain error — inside the §5.2 stability
				// margin (2× is the boundary), so the loop converges while the
				// episode lasts instead of ringing.
				shift: func(start, dur time.Duration) chaos.Fault {
					return windowedShift{label: "flush-rate-drop", start: start, duration: dur,
						apply:  func() { st.SetFlushBytesPerSec(36 * mb) },
						revert: func() { st.SetFlushBytesPerSec(hb2149Config().FlushBytesPerSec) }}
				},
				finish: func(rep *proptest.Report) { rep.Progress, rep.Crashed = st.Writes(), st.Crashed() },
			}
		},
	}
}

// HB2149Scenario returns the scenario descriptor.
func HB2149Scenario() Scenario {
	return Scenario{
		ID:                "HB2149",
		Conf:              "global.memstore.lowerLimit",
		Description:       "decides how much memstore data is flushed; too big, write blocked too long; too small, write blocked too often",
		Flags:             "Y-Y-N",
		ConstraintName:    "worst write block ≤ 10s → 5s (soft)",
		TradeoffName:      "write throughput (ops/s)",
		HigherIsBetter:    true,
		ProfilingWorkload: "YCSB 1.0W, 1MB @ fraction 0.2/0.4/0.6/0.8",
		PhaseWorkloads:    [2]string{"YCSB 1.0W, 1MB, block ≤ 10s", "YCSB 1.0W, 1MB, block ≤ 5s"},
		BuggyDefault:      0.95, // drain almost everything: ~7.8s blocks — breaks the 5s goal
		PatchDefault:      0.2,  // conservative patched default: safe but flush-happy
		StaticGrid:        []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.35, 0.5, 0.65, 0.8, 0.95},
		NonOptimal:        0.05,
		Run:               RunHB2149,
	}
}

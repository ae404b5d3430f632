package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/core"
	"smartconf/internal/dfs"
	"smartconf/internal/proptest"
	"smartconf/internal/sim"
)

// HD4995: content-summary.limit decides how many files a du traversal
// processes per namesystem-lock acquisition. Long lock holds block every
// concurrent writer (the user's worst-case block constraint); short holds
// pay the lock re-acquisition overhead over and over, inflating du latency
// (the trade-off metric).
//
// This is a goal-change scenario in Table 6: multi-client phase 1 tolerates
// 20 s writer blocks, phase 2 tightens the goal to 10 s.
//
// Paper flags: Y-N-N (conditional, indirect, soft).

const (
	hd4995RunTime    = 700 * time.Second
	hd4995PhaseShift = 350 * time.Second
	hd4995Goal1      = 20.0 // seconds of worst-case writer block (lock hold)
	hd4995Goal2      = 10.0
	hd4995Grace      = 120 * time.Second // one du to converge after setGoal
	hd4995DuEvery    = 120 * time.Second
)

func hd4995Config() dfs.Config {
	return dfs.Config{
		PerFileCost:       500 * time.Microsecond,
		ReacquireOverhead: 8 * time.Second,
		InitialFiles:      100_000, // a 50 s full traversal
	}
}

// ProfileHD4995 profiles lock-hold duration against the pinned chunk limit
// under the profiling workload (TestDFSIO, single client: light writer load).
func ProfileHD4995() core.Profile {
	return memoProfile("HD4995", func() core.Profile {
		return profileSweep([]float64{5_000, 15_000, 30_000, 60_000}, func(setting float64, record func(setting, measurement float64)) {
			s := newScenarioSim()
			nn := dfs.New(s, hd4995Config(), int(setting))
			// Single writer client at 2 writes/s (the profiling workload).
			s.Every(0, 500*time.Millisecond, func() bool {
				nn.Write()
				return s.Now() < 10*time.Minute
			})
			// Samples pair the deputy (files actually traversed in the hold)
			// with the measured hold time; partial final chunks are thereby
			// attributed to their true size instead of biasing the slope.
			taken := 0
			seen := int64(0)
			s.Every(time.Second, time.Second, func() bool {
				if n := nn.HoldTimes().Count(); n > seen && taken < 10 {
					record(float64(nn.LastChunkFiles()), nn.HoldTimes().Last().Seconds())
					seen = n
					taken++
				}
				return taken < 10
			})
			// Back-to-back du requests supply enough lock holds.
			var loop func(time.Duration)
			loop = func(time.Duration) { nn.Du(loop) }
			s.At(0, func() { nn.Du(loop) })
			s.RunUntil(10 * time.Minute)
		})
	})
}

// hd4995Spec declares the chunk-limit controller.
func hd4995Spec() smartconf.Spec {
	return smartconf.Spec{
		Name:    "content-summary.limit",
		Metric:  "writer_block_time",
		Goal:    hd4995Goal1,
		Hard:    false, // soft latency constraint
		Initial: 1,     // a uselessly small starting value; SmartConf recovers
		Min:     1, Max: 1e7,
	}
}

func newHD4995Conf(opts ...smartconf.Option) *smartconf.IndirectConf {
	return mustSynth(smartconf.NewIndirect(hd4995Spec(), publicProfile(ProfileHD4995()), nil, opts...))
}

// hd4995Sense reads the sensor, the last completed lock hold, and its
// deputy, the files that hold actually traversed.
func hd4995Sense(nn *dfs.NameNode) (hold, files float64) {
	return nn.HoldTimes().Last().Seconds(), float64(nn.LastChunkFiles())
}

// hd4995OnChunk installs a control step at each lock acquisition of a du
// (conditional + indirect: the deputy is the actual files-per-hold of the
// last chunk). On the first chunk of the first du no hold has completed
// (Count() == 0), so the hook keeps the Initial limit rather than feeding a
// phantom 0 s hold paired with a stale deputy reading. The figure run and
// the chaos cell both install their step here.
func hd4995OnChunk(nn *dfs.NameNode, step func()) {
	nn.BeforeChunk = func() {
		if nn.HoldTimes().Count() > 0 {
			step()
		}
	}
}

// hd4995Writers drives the multi-client writer load: 20 writes/s with
// jitter, each tick's writes scaled by env's surge factor (nil: none).
func hd4995Writers(s *sim.Simulation, nn *dfs.NameNode, rng *rand.Rand, env *chaos.Env, until time.Duration) {
	s.Every(0, 50*time.Millisecond, func() bool {
		if rng.Float64() < 0.95 {
			for i := 0; i < int(env.SurgeFactor()+0.5); i++ {
				nn.Write()
			}
		}
		return s.Now() < until
	})
}

// RunHD4995 executes the two-phase evaluation under the given policy.
func RunHD4995(p Policy) Result {
	s := newScenarioSim()
	rng := rand.New(rand.NewSource(4995))
	nn := dfs.New(s, hd4995Config(), 1)

	var setGoal func(float64)
	switch p.Kind {
	case StaticPolicy:
		nn.SetLimit(int(p.Static))
	case SmartConfPolicy:
		ic := newHD4995Conf()
		hd4995OnChunk(nn, func() {
			hold, files := hd4995Sense(nn) //sc:HD4995:sensor
			ic.SetPerf(hold, files)        //sc:HD4995:invoke
			nn.SetLimit(ic.Conf())         //sc:HD4995:invoke
		})
		setGoal = ic.SetGoal
	case SinglePolePolicy, NoVirtualGoalPolicy:
		return runCached(HD4995Scenario(), SmartConf()) // ablations target hard memory goals
	}

	holdS := Series{Name: "lock_hold", Unit: "s"}
	knobS := Series{Name: "content-summary.limit", Unit: "files"}
	hold := newSamples(nn.HoldTimes())
	s.Every(time.Second, time.Second, func() bool {
		if v, ok := hold(); ok {
			holdS.Points = append(holdS.Points, Point{s.Now(), v})
		}
		knobS.Points = append(knobS.Points, Point{s.Now(), float64(nn.Limit())})
		return s.Now() < hd4995RunTime
	})

	s.At(hd4995PhaseShift, func() {
		if setGoal != nil {
			setGoal(hd4995Goal2)
		}
	})

	hd4995Writers(s, nn, rng, nil, hd4995RunTime)
	// Periodic du requests (the content-summary consumer).
	s.Every(10*time.Second, hd4995DuEvery, func() bool {
		nn.Du(nil)
		return s.Now() < hd4995RunTime
	})
	s.RunUntil(hd4995RunTime)

	res := Result{
		Issue:          "HD4995",
		Policy:         p,
		TradeoffName:   "mean du latency (s)",
		HigherIsBetter: false,
		Tradeoff:       nn.DuLatency().OverallMean().Seconds(),
		Series:         []Series{holdS, knobS},
	}
	goalAt := func(t time.Duration) float64 {
		switch {
		case t < hd4995Grace:
			// Initial convergence window: every policy gets the same slack
			// while a controller climbs from its deliberately poor initial
			// value (statics are unaffected unless they only violate here).
			return 1e12
		case t < hd4995PhaseShift+hd4995Grace:
			return hd4995Goal1
		default:
			return hd4995Goal2
		}
	}
	met, at, worst := evalUpperBound(holdS, func(t time.Duration) float64 { return goalAt(t) * 1.05 })
	if !met {
		res.ConstraintMet = false
		res.ViolatedAt = at
		res.Violation = fmt.Sprintf("lock hold %.1fs > goal %.1fs", worst, goalAt(at))
	} else {
		res.ConstraintMet = true
	}
	if nn.DusDone() == 0 {
		res.ConstraintMet = false
		res.Violation = "no du completed"
	}
	return res
}

// hd4995Chaos wires HD4995's soft lock-hold goal into a chaos cell. Plant
// shift: the per-file traversal cost rises (cold dentry cache).
func hd4995Chaos(s *sim.Simulation, fault string, seed int64) chaosRig {
	const horizon = 360 * time.Second
	rng := rand.New(rand.NewSource(seed + 49950))
	nn := dfs.New(s, hd4995Config(), 1)
	return chaosRig{
		horizon: horizon,
		tune:    chaosTune{noise: 0.06, drop: 0.7, delay: 2 * time.Second, stall: 60 * time.Second},
		knobLo:  1, knobHi: 1e7,
		// Initial-convergence grace (the controller climbs from limit=1),
		// then the soft goal with the scenario's 5% slack.
		goal:  []proptest.Sample{{T: 0, V: 1e12}, {T: 60 * time.Second, V: hd4995Goal1 * 1.05}},
		surge: 2,
		synth: func(opts []smartconf.Option) func(perf, deputy float64) float64 {
			return indirectStep(newHD4995Conf(opts...))
		},
		sense:   func() (float64, float64) { return hd4995Sense(nn) },
		actuate: func(v float64) { nn.SetLimit(int(v)) },
		attach:  func(tick func()) { hd4995OnChunk(nn, tick) },
		// ×1.5 per-file cost: a gain error inside the §5.2 stability margin
		// (a full doubling sits exactly on the oscillation boundary and never
		// settles).
		shift: func(start, dur time.Duration) chaos.Fault {
			return windowedShift{label: "lock-cost-up", start: start, duration: dur,
				apply:  func() { nn.SetPerFileCost(3 * hd4995Config().PerFileCost / 2) },
				revert: func() { nn.SetPerFileCost(hd4995Config().PerFileCost) }}
		},
		drive: func(env *chaos.Env) {
			hd4995Writers(s, nn, rng, env, horizon)
			s.Every(10*time.Second, 90*time.Second, func() bool {
				nn.Du(nil)
				return s.Now() < horizon
			})
		},
		metric: newSamples(nn.HoldTimes()),
		knob:   func() float64 { return float64(nn.Limit()) },
		more:   func() bool { return s.Now() < horizon },
		finish: func(rep *proptest.Report) { rep.Progress = nn.DusDone() },
	}
}

// HD4995Scenario returns the scenario descriptor.
func HD4995Scenario() Scenario {
	return Scenario{
		ID:                "HD4995",
		Conf:              "content-summary.limit",
		Description:       "limits #files traversed before du releases the big lock; too big, writes blocked long; too small, du latency hurts",
		Flags:             "Y-N-N",
		ConstraintName:    "worst writer block ≤ 20s → 10s (soft)",
		TradeoffName:      "mean du latency (s)",
		HigherIsBetter:    false,
		ProfilingWorkload: "TestDFSIO single-client @ limit 5k/15k/30k/60k",
		PhaseWorkloads:    [2]string{"TestDFSIO multi-client, block ≤ 20s", "TestDFSIO multi-client, block ≤ 10s"},
		BuggyDefault:      1e7, // the hard-coded behaviour: traverse everything in one hold
		PatchDefault:      1e7, // the patch exposed the knob but kept the old default (§6.2)
		StaticGrid:        []float64{2_000, 5_000, 10_000, 20_000, 30_000, 40_000, 60_000, 100_000},
		NonOptimal:        2_000,
		Run:               RunHD4995,
	}
}

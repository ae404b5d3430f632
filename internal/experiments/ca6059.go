package experiments

import (
	"math/rand"
	"time"

	"smartconf"
	"smartconf/internal/core"
	"smartconf/internal/kvstore"
	"smartconf/internal/memsim"
	"smartconf/internal/workload"
)

// CA6059: memtable_total_space_in_mb thresholds the Cassandra write buffer.
// A large memtable absorbs writes cheaply (few flushes ⇒ low write latency)
// but OOMs the moment other heap consumers grow — in phase 2 the read-index
// cache expands to half the heap ("C0.5" in Table 6) and any generous static
// setting dies. A small memtable flushes constantly, and write latency pays
// the IO-contention penalty most of the time.
//
// Paper flags: N-N-Y (always-on, indirect, hard).

const (
	ca6059RunTime    = 700 * time.Second
	ca6059PhaseShift = 350 * time.Second
	ca6059HeapCap    = 512 * mb
	ca6059Goal       = 495 * mb
	ca6059Cache2     = 256 * mb // phase-2 cache target: C0.5 of the heap
	ca6059WriteEvery = 50 * time.Millisecond
)

func ca6059Config() kvstore.MemtableConfig {
	return kvstore.MemtableConfig{
		FlushBytesPerSec:   256 * mb,
		FlushFixedOverhead: 500 * time.Millisecond,
		WriteBaseLatency:   2 * time.Millisecond,
		FlushPenalty:       20 * time.Millisecond,
		BaseHeapBytes:      64 * mb,
	}
}

func ca6059Phases() []workload.YCSBPhase {
	return []workload.YCSBPhase{
		// Table 6: phase-1 "1.0W, 1MB, C0"; phase-2 "0.9W, 1MB, C0.5".
		{Name: "phase-1", Duration: ca6059PhaseShift, WriteRatio: 1.0, RequestBytes: 1 * mb, CacheRatio: 0},
		{Name: "phase-2", WriteRatio: 0.9, RequestBytes: 1 * mb, CacheRatio: 0.5},
	}
}

// ProfileCA6059 runs the profiling campaign under the profiling workload
// (YCSB-A: 0.5W, 1 MB), pinning the memtable threshold at four settings and
// sampling heap consumption at write time.
func ProfileCA6059() core.Profile {
	return memoProfile("CA6059", func() core.Profile {
		settings := []float64{32 * float64(mb), 96 * float64(mb), 160 * float64(mb), 224 * float64(mb)}
		return profileSweep(settings, func(setting float64, record func(setting, measurement float64)) {
			s := newScenarioSim()
			rng := rand.New(rand.NewSource(6059))
			heap := memsim.NewHeap(ca6059HeapCap)
			st := kvstore.NewMemtableStore(s, heap, ca6059Config(), int64(setting))
			heapNoise(s, heap, rng, rpcNoiseMax, hb3813ProfileStep)

			writes, taken := 0, 0
			st.BeforeWrite = func() {
				writes++
				if writes%200 == 0 && taken < 10 {
					record(setting, float64(heap.Used()))
					taken++
				}
			}
			gen := workload.NewYCSB(6059, 1000, workload.YCSBPhase{WriteRatio: 0.5, RequestBytes: 1 * mb})
			s.Every(0, ca6059WriteEvery, func() bool {
				op := gen.NextOp()
				if op.Write {
					st.Write(op.Bytes)
				} else {
					st.Read(op.Bytes)
				}
				return s.Now() < hb3813ProfileStep && !st.Crashed()
			})
			s.RunUntil(hb3813ProfileStep)
		})
	})
}

// RunCA6059 executes the two-phase evaluation under the given policy.
func RunCA6059(p Policy) Result {
	s := newScenarioSim()
	rng := rand.New(rand.NewSource(6059))
	heap := memsim.NewHeap(ca6059HeapCap)
	st := kvstore.NewMemtableStore(s, heap, ca6059Config(), 0)

	switch p.Kind {
	case StaticPolicy:
		st.SetThreshold(int64(p.Static))
	case SmartConfPolicy:
		profile := ProfileCA6059()
		ic := mustSynth(smartconf.NewIndirect(smartconf.Spec{
			Name:    "memtable_total_space_in_mb",
			Metric:  "memory_consumption",
			Goal:    float64(ca6059Goal),
			Hard:    true,
			Initial: 0,
			Min:     0, Max: float64(ca6059HeapCap),
		}, publicProfile(profile), nil))
		st.BeforeWrite = func() {
			ic.SetPerf(float64(heap.Used()), float64(st.MemtableBytes())) //sc:CA6059:sensor
			st.SetThreshold(int64(ic.Value()))                            //sc:CA6059:invoke
		}
	case SinglePolePolicy, NoVirtualGoalPolicy:
		ctrl := mustSynth(ablationController(p.Kind, ProfileCA6059(), float64(ca6059Goal), p.FixedPole))
		st.BeforeWrite = func() {
			ctrl.SetConf(float64(st.MemtableBytes()))
			st.SetThreshold(int64(ctrl.Update(float64(heap.Used()))))
		}
	}

	heapNoise(s, heap, rng, rpcNoiseMax, ca6059RunTime)

	memS := Series{Name: "used_memory", Unit: "bytes"}
	knobS := Series{Name: "memtable_total_space", Unit: "bytes"}
	var oomAt time.Duration
	heap.OnOOM(func() { oomAt = s.Now() })
	s.Every(time.Second, time.Second, func() bool {
		memS.Points = append(memS.Points, Point{s.Now(), float64(heap.Used())})
		knobS.Points = append(knobS.Points, Point{s.Now(), float64(st.Threshold())})
		return s.Now() < ca6059RunTime && !heap.OOM()
	})

	gen := workload.NewYCSB(6060, 1000, ca6059Phases()[0])
	s.Every(0, ca6059WriteEvery, func() bool {
		if phase, _ := workload.PhaseAt(ca6059Phases(), s.Now()); phase.Name != gen.Phase().Name {
			gen.SetPhase(phase)
			st.SetCacheTarget(int64(phase.CacheRatio * float64(ca6059HeapCap)))
		}
		op := gen.NextOp()
		if op.Write {
			st.Write(op.Bytes)
		} else {
			st.Read(op.Bytes)
		}
		return s.Now() < ca6059RunTime && !st.Crashed()
	})
	s.RunUntil(ca6059RunTime)

	res := Result{
		Issue:          "CA6059",
		Policy:         p,
		TradeoffName:   "mean write latency (ms)",
		HigherIsBetter: false,
		Tradeoff:       float64(st.WriteLatency().OverallMean()) / float64(time.Millisecond),
		Series:         []Series{memS, knobS},
	}
	judgeHardMemory(&res, memS, heap.OOM(), oomAt, constGoal(ca6059Goal))
	return res
}

// CA6059Scenario returns the scenario descriptor.
func CA6059Scenario() Scenario {
	return Scenario{
		ID:                "CA6059",
		Conf:              "memtable_total_space_in_mb",
		Description:       "limits the memtable size; too big, OOM; too small, write latency hurts",
		Flags:             "N-N-Y",
		ConstraintName:    "memory ≤ 495MB (hard, no OOM)",
		TradeoffName:      "mean write latency (ms)",
		HigherIsBetter:    false,
		ProfilingWorkload: "YCSB-A 0.5W, 1MB @ memtable 32/96/160/224MB",
		PhaseWorkloads:    [2]string{"YCSB 1.0W, 1MB, C0", "YCSB 0.9W, 1MB, C0.5"},
		BuggyDefault:      320 * float64(mb), // a generous default — dies when the cache grows
		PatchDefault:      64 * float64(mb),  // the conservative patched default
		StaticGrid:        []float64{8 * float64(mb), 16 * float64(mb), 24 * float64(mb), 32 * float64(mb), 40 * float64(mb), 48 * float64(mb), 64 * float64(mb), 96 * float64(mb), 128 * float64(mb), 192 * float64(mb)},
		NonOptimal:        8 * float64(mb),
		Run:               RunCA6059,
	}
}

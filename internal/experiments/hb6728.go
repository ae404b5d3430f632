package experiments

import (
	"math/rand"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/core"
	"smartconf/internal/memsim"
	"smartconf/internal/rpcserver"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// HB6728: ipc.server.response.queue.maxsize bounds the RPC response queue
// in bytes. Read responses (2 MB values fetched by tiny requests) sit on the
// heap until slow clients receive them, so the bound indirectly caps memory
// (hard OOM constraint); but each queued response is a parallel client
// transfer, so a deeper response queue drains faster and completes more
// reads (the trade-off metric). When the queue is full, the responder sheds
// responses and clients retry — rejected work is lost throughput.
//
// This is one of the paper's two goal-change scenarios: mid-run, the user
// tightens the memory goal from 495 MB to 400 MB through the setGoal API,
// which no static setting can follow without being conservative everywhere.
//
// Paper flags: N-N-Y (always-on, indirect, hard).

const (
	hb6728RunTime    = 700 * time.Second
	hb6728PhaseShift = 350 * time.Second
	hb6728BurstSize  = 300
	hb6728BurstEvery = 12500 * time.Millisecond // 24 ops/s offered
	hb6728Spacing    = 20 * time.Millisecond

	hb6728Goal1 = rpcMemoryGoal // phase-1 memory goal (495 MB)
	hb6728Goal2 = 400 * mb      // phase-2: the user tightens the budget
	// hb6728Grace excludes the controller settling window after the goal
	// change from constraint evaluation (standard in control evaluation;
	// applied to every policy equally).
	hb6728Grace = 30 * time.Second
)

func hb6728Config() rpcserver.Config {
	cfg := rpcConfig()
	cfg.ReadResponseBytes = 2 * mb
	cfg.DrainBytesPerSec = 40 * mb       // aggregate client bandwidth cap
	cfg.PerConnDrainBytesPerSec = mb / 2 // 0.5 MB/s per client connection
	cfg.DropOnRespFull = true            // shed responses instead of blocking workers
	return cfg
}

func hb6728Phases() []workload.YCSBPhase {
	return []workload.YCSBPhase{
		// Table 6: phase-1 "0.0W, 2MB"; phase-2 "0.3W, 2MB". Reads carry
		// tiny request payloads; the 2 MB rides on the response (and on
		// write requests in phase 2).
		{Name: "phase-1", Duration: hb6728PhaseShift, WriteRatio: 0.0, RequestBytes: 4 << 10},
		{Name: "phase-2", WriteRatio: 0.3, RequestBytes: 4 << 10},
	}
}

// hb6728Op converts a generated op: writes carry 2 MB payloads, reads a tiny
// request (their 2 MB is the response, fixed by ReadResponseBytes).
func hb6728Op(op workload.Op) workload.Op {
	if op.Write {
		op.Bytes = 2 * mb
	}
	return op
}

// ProfileHB6728 profiles heap consumption against the pinned response-queue
// byte bound under the profiling workload (YCSB 0.0W, 2 MB).
func ProfileHB6728() core.Profile {
	return memoProfile("HB6728", func() core.Profile {
		settings := []float64{32 * float64(mb), 64 * float64(mb), 96 * float64(mb), 128 * float64(mb)}
		return profileSweep(settings, func(setting float64, record func(setting, measurement float64)) {
			s := newScenarioSim()
			rng := rand.New(rand.NewSource(6728))
			heap := memsim.NewHeap(rpcHeapCapacity)
			sv := rpcserver.New(s, heap, hb6728Config())
			sv.SetMaxQueue(1000)
			sv.SetMaxRespBytes(int64(setting))
			heapNoise(s, heap, rng, rpcNoiseMax, hb3813ProfileStep)

			// Time-driven sensor sampling (1 every 6 s): responds cluster inside
			// bursts, so sampling there would systematically miss the idle-heap
			// troughs and underestimate the system's variability (λ).
			taken := 0
			s.Every(3*time.Second, 6*time.Second, func() bool {
				if taken < 10 && !heap.OOM() {
					record(setting, float64(heap.Used()))
					taken++
				}
				return taken < 10
			})
			w := &rpcWorkload{
				gen:        workload.NewYCSB(6728, 1000, workload.YCSBPhase{WriteRatio: 0, RequestBytes: 4 << 10}),
				burstSize:  hb6728BurstSize,
				burstEvery: hb6728BurstEvery,
				spacing:    hb6728Spacing,
				phases:     []workload.YCSBPhase{{Name: "profiling", WriteRatio: 0, RequestBytes: 4 << 10}},
			}
			w.run(s, hb3813ProfileStep, rng, func(op workload.Op) { sv.Offer(hb6728Op(op)) })
			s.RunUntil(hb3813ProfileStep)
		})
	})
}

// RunHB6728 executes the two-phase evaluation under the given policy.
func RunHB6728(p Policy) Result { return newHB6728Rig(newScenarioSim()).runFigure(p, nil) }

// newHB6728Rig builds the RPC server on s, with the heap noise as its
// disturbance and the two-phase bursts as its load. Mid-run the user
// tightens the memory goal (the paper's setGoal API).
func newHB6728Rig(s *sim.Simulation) *rig {
	rng := rand.New(rand.NewSource(6728))
	heap := memsim.NewHeap(rpcHeapCapacity)
	sv := rpcserver.New(s, heap, hb6728Config())
	sv.SetMaxQueue(1000) // the request queue is not the knob under study here
	var oomAt time.Duration
	heap.OnOOM(func() { oomAt = s.Now() })
	return &rig{
		s: s, horizon: hb6728RunTime,
		smart: func() func(float64) {
			ic := mustSynth(smartconf.NewIndirect(smartconf.Spec{
				Name:    "ipc.server.response.queue.maxsize",
				Metric:  "memory_consumption",
				Goal:    float64(rpcMemoryGoal),
				Hard:    true,
				Initial: 0,
				Min:     0, Max: 1e9,
			}, publicProfile(ProfileHB6728()), nil))
			sv.BeforeRespond = func() {
				ic.SetPerf(float64(heap.Used()), float64(sv.RespBytes())) //sc:HB6728:sensor
				sv.SetMaxRespBytes(int64(ic.Value()))                     //sc:HB6728:invoke
			}
			return ic.SetGoal //sc:HB6728:invoke
		},
		actuate: func(v float64) { sv.SetMaxRespBytes(int64(v)) },
		disturb: func(*chaos.Env) { heapNoise(s, heap, rng, rpcNoiseMax, hb6728RunTime) },
		load: func(env *chaos.Env) {
			w := &rpcWorkload{
				gen:        workload.NewYCSB(6729, 1000, hb6728Phases()[0]),
				burstSize:  hb6728BurstSize,
				burstEvery: hb6728BurstEvery,
				spacing:    hb6728Spacing,
				phases:     hb6728Phases(),
				env:        env,
			}
			w.run(s, hb6728RunTime, rng, func(op workload.Op) { sv.Offer(hb6728Op(op)) })
		},
		probe: rpcColumns(heap, sv, "response.queue.maxsize",
			func() (float64, bool) { return float64(sv.MaxRespBytes()), true }),
		more:   func() bool { return s.Now() < hb6728RunTime && !heap.OOM() },
		goalAt: hb6728PhaseShift, goal2: float64(hb6728Goal2),
		judge: func(res *Result) {
			res.Issue = "HB6728"
			judgeRPC(res, sv, heap, oomAt, hb6728RunTime, func(t time.Duration) float64 {
				switch {
				case t < hb6728PhaseShift:
					return float64(hb6728Goal1)
				case t < hb6728PhaseShift+hb6728Grace:
					return float64(hb6728Goal1) // settling window after the goal change
				default:
					return float64(hb6728Goal2)
				}
			})
		},
	}
}

// HB6728Scenario returns the scenario descriptor.
func HB6728Scenario() Scenario {
	return Scenario{
		ID:                "HB6728",
		Conf:              "ipc.server.response.queue.maxsize",
		Description:       "limits RPC-response queue size; too big, OOM; too small, read/write throughput hurts",
		Flags:             "N-N-Y",
		ConstraintName:    "memory ≤ 495MB (hard, no OOM)",
		TradeoffName:      "completed ops/s",
		HigherIsBetter:    true,
		ProfilingWorkload: "YCSB 0.0W, 2MB @ resp limit 32/64/96/128MB",
		PhaseWorkloads:    [2]string{"YCSB 0.0W, 2MB, goal 495MB", "YCSB 0.3W, 2MB, goal 400MB"},
		BuggyDefault:      1 << 50, // the pre-patch default: unbounded
		PatchDefault:      1 << 30, // the patched default: 1 GB — still above the heap
		StaticGrid:        []float64{16 * float64(mb), 32 * float64(mb), 48 * float64(mb), 64 * float64(mb), 80 * float64(mb), 96 * float64(mb), 128 * float64(mb), 160 * float64(mb), 192 * float64(mb)},
		NonOptimal:        16 * float64(mb),
		Run:               RunHB6728,
	}
}

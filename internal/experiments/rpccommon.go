package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"smartconf/internal/chaos"
	"smartconf/internal/core"
	"smartconf/internal/memsim"
	"smartconf/internal/rpcserver"
	"smartconf/internal/sim"
	"smartconf/internal/workload"

	smartconf "smartconf"
)

// Shared machinery for the RPC-server scenarios (HB3813, HB6728, and the
// Figure 6–8 case studies).

const (
	mb = int64(1) << 20

	// rpcHeapCapacity is the simulated region server's JVM heap; the user's
	// memory goal (495 MB, as in Figure 6) sits just under it.
	rpcHeapCapacity = 512 * mb
	rpcMemoryGoal   = 495 * mb
	// rpcBaseHeap models code/metadata/block-cache residency.
	rpcBaseHeap = 280 * mb
	// rpcNoiseMax bounds the random-walk footprint of "other objects".
	rpcNoiseMax = 20 * mb
)

func rpcConfig() rpcserver.Config {
	cfg := rpcserver.DefaultConfig()
	cfg.BaseHeapBytes = rpcBaseHeap
	cfg.MaxBatch = 4
	return cfg
}

// rpcWorkload drives bursty YCSB traffic into the server: every burstEvery,
// a burst of ~burstSize operations arrives back-to-back. Bursts are what
// fill the call queue to its bound (and what OOM unbounded queues).
type rpcWorkload struct {
	gen        *workload.YCSB
	burstSize  int
	burstEvery time.Duration
	// spacing is the gap between operations inside a burst: bursts are fast
	// relative to the drain rate but not instantaneous, so the controller
	// can react while one is arriving.
	spacing time.Duration
	phases  []workload.YCSBPhase
	// env scales every burst by its surge factor; nil means no surge.
	env *chaos.Env
}

// run starts the burst loop and the phase switcher; onOp receives each
// operation.
func (w *rpcWorkload) run(s *sim.Simulation, until time.Duration, rng *rand.Rand, onOp func(workload.Op)) {
	ops := newSlotTable(s, onOp)
	s.Every(0, w.burstEvery, func() bool {
		if phase, _ := workload.PhaseAt(w.phases, s.Now()); phase.Name != w.gen.Phase().Name {
			w.gen.SetPhase(phase)
		}
		b := int(float64(w.burstSize) * w.env.SurgeFactor())
		n := b + rng.Intn(b/5+1) - b/10 // ±10%
		for i := 0; i < n; i++ {
			ops.after(time.Duration(i)*w.spacing, w.gen.NextOp())
		}
		return s.Now() < until
	})
}

// slotTable delivers values to one handler after a delay without a closure
// per value: each value waits in a slot, its event carries the slot index
// (sim.AfterArg), and a fired slot returns to a free list for the next
// value. Events keep the order and sequence numbers an s.After closure per
// value would have had, so runs stay byte-identical.
type slotTable[T any] struct {
	s      *sim.Simulation
	vals   []T
	free   []uint64
	handle func(T)
	fire   func(uint64) // t.dispatch, bound once: a method value per call allocates
}

func newSlotTable[T any](s *sim.Simulation, handle func(T)) *slotTable[T] {
	t := &slotTable[T]{s: s, handle: handle}
	t.fire = t.dispatch
	return t
}

// after delivers v to the handler d from now.
func (t *slotTable[T]) after(d time.Duration, v T) {
	var i uint64
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
		t.vals[i] = v
	} else {
		i = uint64(len(t.vals))
		t.vals = append(t.vals, v)
	}
	t.s.AfterArg(d, t.fire, i)
}

func (t *slotTable[T]) dispatch(i uint64) {
	v := t.vals[i]
	t.free = append(t.free, i)
	t.handle(v)
}

// heapNoise injects the fluctuating "other objects" footprint: a bounded
// random walk re-sampled every 500 ms. A failed noise allocation is an OOM
// like any other.
func heapNoise(s *sim.Simulation, heap *memsim.Heap, rng *rand.Rand, max int64, until time.Duration) {
	var current int64
	s.Every(250*time.Millisecond, 500*time.Millisecond, func() bool {
		if heap.OOM() {
			return false
		}
		delta := int64(rng.Intn(int(10*mb+1))) - 5*mb
		next := current + delta
		if next < 0 {
			next = 0
		}
		if next > max {
			next = max
		}
		if next > current {
			if err := heap.Alloc(next - current); err != nil {
				return false
			}
		} else {
			heap.Free(current - next)
		}
		current = next
		return s.Now() < until
	})
}

// rpcProbe samples the scenario's time series once per second.
type rpcProbe struct {
	mem        Series
	knob       Series
	throughput Series
	completed  Series
}

func startRPCProbe(s *sim.Simulation, heap *memsim.Heap, sv *rpcserver.Server, knob func() float64, knobName string, until time.Duration) *rpcProbe {
	p := &rpcProbe{
		mem:        Series{Name: "used_memory", Unit: "bytes"},
		knob:       Series{Name: knobName, Unit: "items"},
		throughput: Series{Name: "throughput", Unit: "ops/s"},
		completed:  Series{Name: "completed_ops", Unit: "ops"},
	}
	s.Every(time.Second, time.Second, func() bool {
		now := s.Now()
		p.mem.Points = append(p.mem.Points, Point{now, float64(heap.Used())})
		p.knob.Points = append(p.knob.Points, Point{now, knob()})
		p.throughput.Points = append(p.throughput.Points, Point{now, sv.Throughput()})
		p.completed.Points = append(p.completed.Points, Point{now, float64(sv.Completed())})
		return now < until && !heap.OOM()
	})
	return p
}

// ablationController builds the Figure 7 controllers from the same
// profiling data SmartConf synthesizes from. fixedPole > 0 pins the regular
// pole (the paper uses 0.9 so two-pole switching is the only difference
// between SmartConf and the single-pole baseline).
func ablationController(kind PolicyKind, profile core.Profile, goal, fixedPole float64) (*core.Controller, error) {
	model, err := profile.Fit()
	if err != nil {
		return nil, err
	}
	pole := core.PoleFromDelta(profile.Delta())
	if fixedPole > 0 {
		pole = fixedPole
	}
	lambda := profile.Lambda()
	switch kind {
	case SmartConfPolicy:
		// Full SmartConf with a pinned regular pole: hard goal ⇒ virtual
		// goal + danger-region pole 0.
		return core.NewController(model, pole, lambda,
			core.Goal{Metric: "memory", Target: goal, Hard: true},
			core.Options{Min: 0, Max: 1e9})
	case SinglePolePolicy:
		// Same virtual goal as SmartConf, but the regular pole everywhere:
		// model it as a SOFT goal whose target is the virtual goal (no
		// danger-region switch ever happens).
		target := core.VirtualGoal(goal, lambda, core.UpperBound)
		return core.NewController(model, pole, lambda,
			core.Goal{Metric: "memory", Target: target, Hard: false},
			core.Options{Min: 0, Max: 1e9})
	case NoVirtualGoalPolicy:
		// Two-pole logic but targeting the REAL constraint: λ = 0 places the
		// virtual goal exactly on the goal.
		return core.NewController(model, pole, 0,
			core.Goal{Metric: "memory", Target: goal, Hard: true},
			core.Options{Min: 0, Max: 1e9})
	default:
		return nil, nil
	}
}

// publicProfile converts an internal profile to the public API type.
func publicProfile(p core.Profile) *smartconf.Profile {
	out := smartconf.NewProfile()
	for _, s := range p.Settings {
		out.Add(s.Setting, s.Samples...)
	}
	return out
}

// evalUpperBound scans a metric series against a per-time goal and reports
// the first violation.
func evalUpperBound(series Series, goalAt func(t time.Duration) float64) (met bool, at time.Duration, worst float64) {
	met = true
	for _, p := range series.Points {
		if p.V > goalAt(p.T) {
			if met {
				met = false
				at = p.T
			}
			if p.V > worst {
				worst = p.V
			}
		}
	}
	return met, at, worst
}

// judgeHardMemory records the verdict on a hard memory goal: an OOM is the
// violation; otherwise the first probe sample above goalAt is.
func judgeHardMemory(res *Result, mem Series, oom bool, oomAt time.Duration, goalAt func(time.Duration) float64) {
	met, at, worst := evalUpperBound(mem, goalAt)
	switch {
	case oom:
		res.ViolatedAt, res.Violation = oomAt, "OOM"
	case !met:
		res.ViolatedAt = at
		res.Violation = fmt.Sprintf("memory %.0fMB > goal %.0fMB", worst/float64(mb), goalAt(at)/float64(mb))
	}
	res.ConstraintMet = res.Violation == ""
}

// constGoal is a goal that holds for the whole run.
func constGoal(goal int64) func(time.Duration) float64 {
	return func(time.Duration) float64 { return float64(goal) }
}

// core_PoleForTest exposes the synthesized pole for test logging.
func core_PoleForTest(p core.Profile) float64 { return core.PoleFromDelta(p.Delta()) }

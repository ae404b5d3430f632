package experiments

import (
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
			ops.push(w.gen.NextOp())
		}
		ops.deliver(w.spacing)
		return s.Now() < until
	})
}

// slotTable delivers bursts of values to one handler without a closure per
// value: a burst's values wait in a block, one sim.AfterArgSeries delivers
// them with the argument block<<32 | i, and a block returns to a free list
// once its last value is out. The series has the order and sequence numbers
// an s.After closure per value would have had, so runs stay byte-identical.
type slotTable[T any] struct {
	s      *sim.Simulation
	blocks [][]T
	free   []uint64 // delivered blocks, ready for the next burst
	open   int      // block push fills; -1 until the next push
	handle func(T)
	fire   func(uint64) // t.dispatch, bound once: a method value per call allocates
}

func newSlotTable[T any](s *sim.Simulation, handle func(T)) *slotTable[T] {
	t := &slotTable[T]{s: s, open: -1, handle: handle}
	t.fire = t.dispatch
	return t
}

// push appends v to the burst being collected.
func (t *slotTable[T]) push(v T) {
	if t.open < 0 {
		if n := len(t.free); n > 0 {
			t.open = int(t.free[n-1])
			t.free = t.free[:n-1]
		} else {
			t.open = len(t.blocks)
			t.blocks = append(t.blocks, nil)
		}
	}
	t.blocks[t.open] = append(t.blocks[t.open], v)
}

// deliver sends the collected burst to the handler, value i at
// now + i·every. An empty burst sends nothing.
func (t *slotTable[T]) deliver(every time.Duration) {
	if t.open < 0 {
		return
	}
	b := uint64(t.open)
	t.open = -1
	t.s.AfterArgSeries(every, len(t.blocks[b]), t.fire, b<<32)
}

func (t *slotTable[T]) dispatch(arg uint64) {
	b, i := arg>>32, int(uint32(arg))
	blk := t.blocks[b]
	v := blk[i]
	if i == len(blk)-1 {
		t.blocks[b] = blk[:0]
		t.free = append(t.free, b)
	}
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

// rpcColumns is the RPC scenarios' probe: heap in use, the knob, and the
// server's throughput and completed calls.
func rpcColumns(heap *memsim.Heap, sv *rpcserver.Server, knobName string, knob func() (float64, bool)) []column {
	return []column{
		{Series{Name: "used_memory", Unit: "bytes"}, func() (float64, bool) { return float64(heap.Used()), true }},
		{Series{Name: knobName, Unit: "items"}, knob},
		{Series{Name: "throughput", Unit: "ops/s"}, func() (float64, bool) { return sv.Throughput(), true }},
		{Series{Name: "completed_ops", Unit: "ops"}, func() (float64, bool) { return float64(sv.Completed()), true }},
	}
}

// judgeRPC scores an RPC scenario by its completed calls per second and
// judges its hard memory goal.
func judgeRPC(res *Result, sv *rpcserver.Server, heap *memsim.Heap, oomAt, horizon time.Duration, goalAt func(time.Duration) float64) {
	res.TradeoffName, res.HigherIsBetter = "completed ops/s", true
	res.Tradeoff = float64(sv.Completed()) / horizon.Seconds()
	judgeHardMemory(res, heap.OOM(), oomAt, goalAt)
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

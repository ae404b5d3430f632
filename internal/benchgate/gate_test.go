package benchgate

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"smartconf/internal/cluster"
	"smartconf/internal/declog"
	"smartconf/internal/llmserve"
	"smartconf/internal/memsim"
	"smartconf/internal/metrics"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// gateInstance is the minimal cluster.Instance for the router gates.
type gateInstance struct {
	id   int
	dead bool
}

func (g gateInstance) ID() int       { return g.id }
func (g gateInstance) Alive() bool   { return !g.dead }
func (g gateInstance) Load() float64 { return float64(g.id) }

// baselinePath locates BENCH_engine.json relative to this package.
const baselinePath = "../../BENCH_engine.json"

// timeWarnFactor is how far ns/op may drift past the recorded baseline
// before the gate logs a warning. Generous on purpose: the baseline host and
// the CI host differ, and timing is advisory here — allocations are the
// enforced contract.
const timeWarnFactor = 2.0

type baselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp *int64  `json:"allocs_per_op"`
	Note        string  `json:"note"`
}

type baselineFile struct {
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

// The gated hot paths. Each body replicates the published benchmark of the
// same name, so a number in BENCH_engine.json and a gate measurement are the
// same experiment.
var gated = []struct {
	key   string
	bench func(b *testing.B)
}{
	{"smartconf/internal/sim.BenchmarkSimSchedule", func(b *testing.B) {
		s := sim.NewWithCapacity(1)
		fn := func() {}
		t := time.Duration(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t += time.Millisecond
			s.At(t, fn)
			s.Run()
		}
	}},
	{"smartconf/internal/sim.BenchmarkSimScheduleArg", func(b *testing.B) {
		s := sim.NewWithCapacity(1)
		fn := func(uint64) {}
		t := time.Duration(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t += time.Millisecond
			s.AtArg(t, fn, uint64(i))
			s.Run()
		}
	}},
	{"smartconf/internal/sim.BenchmarkSimBatchDispatch", func(b *testing.B) {
		s := sim.NewWithCapacity(4)
		var cascade func(uint64)
		cascade = func(remaining uint64) {
			if remaining > 0 {
				s.AfterArg(0, cascade, remaining-1)
			}
		}
		t := time.Duration(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t += time.Millisecond
			s.AtArg(t, cascade, 63)
			s.Run()
		}
	}},
	{"smartconf/internal/metrics.BenchmarkMeterMark", func(b *testing.B) {
		m := metrics.NewMeter(time.Second)
		now := time.Duration(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += 100 * time.Microsecond
			m.Mark(now, 1)
		}
	}},
	{"smartconf/internal/metrics.BenchmarkLatencyObserve", func(b *testing.B) {
		l := metrics.NewLatency(512)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Observe(time.Duration(i%1000) * time.Microsecond)
		}
	}},
	{"smartconf/internal/declog.BenchmarkDeclogAppend", func(b *testing.B) {
		l := declog.New(4096)
		src := l.Register("gate")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Append(declog.Record{Source: src, Period: uint32(i + 1), Sensed: float64(i), Err: 1, Pole: 0.5, Raw: 2, Applied: 2})
		}
	}},
	{"smartconf/internal/llmserve.BenchmarkLLMStepDeep", func(b *testing.B) {
		cfg := llmserve.DefaultConfig()
		cfg.StepPerToken = 0
		s := sim.New()
		sv := llmserve.New(s, memsim.NewHeap(64<<30), cfg)
		req := workload.LLMRequest{Prompt: 150, Output: 300}
		var now time.Duration
		step := func(i int) {
			now += cfg.StepBase
			s.RunUntil(now)
			if i%3 == 0 {
				sv.Offer(req)
			}
		}
		for i := 0; i < 3000; i++ {
			step(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
	}},
	{"smartconf/internal/cluster.BenchmarkRouterRoute", func(b *testing.B) {
		r := cluster.NewRouter(cluster.KeyAffinity)
		for i := 0; i < 16; i++ {
			r.Add(gateInstance{id: i}, 1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.RouteExcluding(cluster.Request{Key: uint64(i), Cost: 1}, cluster.TriedSet{})
		}
	}},
	{"smartconf/internal/cluster.BenchmarkFleetRouteWide", func(b *testing.B) {
		r := cluster.NewRouter(cluster.KeyAffinity)
		for i := 0; i < 256; i++ {
			r.Add(gateInstance{id: i, dead: i%5 == 0}, 1)
		}
		var tried cluster.TriedSet
		for i := 0; i < 256; i += 7 {
			tried.Set(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.RouteExcluding(cluster.Request{Key: uint64(i), Cost: 1}, tried)
		}
	}},
}

// TestHotPathAllocationsVsBaseline fails the build when a gated hot path
// allocates more per operation than BENCH_engine.json records. New
// allocations on these paths multiply across millions of simulated events,
// and every one of them has been deliberately engineered away; reintroducing
// one should be a conscious, baseline-bumping decision, not an accident.
func TestHotPathAllocationsVsBaseline(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts and timing")
	}
	if testing.Short() {
		t.Skip("benchmark gate skipped in -short mode")
	}

	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}

	for _, g := range gated {
		entry, ok := base.Benchmarks[g.key]
		if !ok {
			t.Errorf("%s: gated benchmark has no baseline entry — record one", g.key)
			continue
		}
		r := testing.Benchmark(g.bench)
		if r.N == 0 {
			t.Errorf("%s: benchmark did not run", g.key)
			continue
		}
		allocs := r.AllocsPerOp()
		if entry.AllocsPerOp == nil {
			t.Errorf("%s: baseline records no allocs_per_op for a gated path", g.key)
		} else if allocs > *entry.AllocsPerOp {
			t.Errorf("%s: %d allocs/op, baseline %d — a new allocation crept onto the hot path (bump the baseline only if intentional)",
				g.key, allocs, *entry.AllocsPerOp)
		}
		if ns := float64(r.NsPerOp()); entry.NsPerOp > 0 && ns > entry.NsPerOp*timeWarnFactor {
			t.Logf("warn: %s at %.1f ns/op vs %.1f recorded (×%.1f) — advisory only, host timing varies",
				g.key, ns, entry.NsPerOp, ns/entry.NsPerOp)
		}
	}
}

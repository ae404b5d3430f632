package benchgate

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"smartconf"
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

func (g gateInstance) ID() int     { return g.id }
func (g gateInstance) Alive() bool { return !g.dead }

// ReportLoad reports the instance's constant load once.
func (g gateInstance) ReportLoad(total *int64) { *total += int64(g.id) }

// gateMember is a fleet member with a bounded backlog for the dispatch gate:
// offers fill it, drain empties it, both reporting to the fleet's total.
type gateMember struct {
	id, load, bound int
	total           *int64
}

func (m *gateMember) ID() int     { return m.id }
func (m *gateMember) Alive() bool { return true }

func (m *gateMember) ReportLoad(total *int64) {
	*total += int64(m.load)
	m.total = total
}

func (m *gateMember) offer(int) bool {
	if m.load >= m.bound {
		return false
	}
	m.load++
	*m.total++
	return true
}

func (m *gateMember) drain() {
	if m.load > 0 {
		m.load--
		*m.total--
	}
}

// llmStep is the body of the llmserve step benchmarks: one scheduler step
// and the retirement that ends it, step latency pinned to StepBase, req
// arriving every third step, so the batch holds about req.Output/3
// sequences.
func llmStep(b *testing.B, heap int64, req workload.LLMRequest) {
	cfg := llmserve.DefaultConfig()
	cfg.StepPerToken = 0
	s := sim.New()
	sv := llmserve.New(s, memsim.NewHeap(heap), cfg)
	var now time.Duration
	step := func(i int) {
		now += cfg.StepBase
		s.RunUntil(now)
		if i%3 == 0 {
			sv.Offer(req)
		}
	}
	for i := 0; i < 10*req.Output; i++ {
		step(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

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
	{"smartconf/internal/sim.BenchmarkSimScheduleDeep", func(b *testing.B) {
		const depth = 1024
		s := sim.NewWithCapacity(depth + 1)
		fn := func() {}
		t := time.Duration(0)
		for i := 0; i < depth; i++ {
			t += time.Millisecond
			s.At(t, fn)
		}
		next := time.Duration(0) // the earliest pending instant
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t += time.Millisecond
			next += time.Millisecond
			s.At(t, fn)
			s.RunUntil(next)
		}
	}},
	{"smartconf/internal/sim.BenchmarkSimScheduleHold", func(b *testing.B) {
		s := sim.NewWithCapacity(16)
		fn := func(uint64) {}
		for i := 0; i < 9; i++ {
			s.AtArg(time.Duration(1000+i)*time.Hour, fn, 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AfterArg(time.Microsecond, fn, uint64(i))
			s.Step()
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
	{"smartconf/internal/sim.BenchmarkSimSeries", func(b *testing.B) {
		s := sim.NewWithCapacity(4)
		drain := func(uint64) {}
		offer := func(uint64) { s.AfterArg(time.Microsecond, drain, 0) }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AfterArgSeries(2*time.Microsecond, 300, offer, 0)
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
	{"smartconf/internal/workload.BenchmarkYCSBNextOp", func(b *testing.B) {
		y := workload.NewYCSB(1, 1<<20, workload.YCSBPhase{Name: "ycsb-a", WriteRatio: 0.5, RequestBytes: 4096, OpsPerSec: 1000})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			y.NextOp()
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
	{"smartconf.BenchmarkIndirectUpdateLogged", func(b *testing.B) {
		profile := smartconf.NewProfile()
		for _, s := range []float64{40, 80, 120, 160} {
			for i := 0; i < 10; i++ {
				profile.Add(s, 2*s+100+float64(i%5))
			}
		}
		ic, err := smartconf.NewIndirect(smartconf.Spec{
			Name: "bench", Metric: "m", Goal: 500, Hard: true, Max: 1e9,
		}, profile, nil, smartconf.WithDecisionLog(declog.New(4096)))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ic.SetPerf(float64(200+i%100), float64(i%80))
			_ = ic.Conf()
		}
	}},
	{"smartconf/internal/llmserve.BenchmarkLLMStepDeep", func(b *testing.B) {
		llmStep(b, 64<<30, workload.LLMRequest{Prompt: 150, Output: 300})
	}},
	{"smartconf/internal/llmserve.BenchmarkLLMStepShallow", func(b *testing.B) {
		llmStep(b, 16<<30, workload.LLMRequest{Prompt: 8, Output: 6})
	}},
	{"smartconf/internal/llmserve.BenchmarkLLMStepWide", func(b *testing.B) {
		llmStep(b, 1<<40, workload.LLMRequest{Prompt: 150, Output: 3000})
	}},
	{"smartconf/internal/cluster.BenchmarkRouterRoute", func(b *testing.B) {
		r := cluster.NewRouter(cluster.KeyAffinity)
		for i := 0; i < 16; i++ {
			r.Add(gateInstance{id: i})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.RouteExcluding(cluster.Request{Key: uint64(i), Cost: 1}, cluster.TriedSet{})
		}
	}},
	{"smartconf/internal/cluster.BenchmarkFleetRouteWide", func(b *testing.B) {
		r := cluster.NewRouter(cluster.KeyAffinity)
		for i := 0; i < 256; i++ {
			r.Add(gateInstance{id: i, dead: i%5 == 0})
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
	{"smartconf/internal/cluster.BenchmarkFleetDispatchWide", func(b *testing.B) {
		f := cluster.NewFleet[int](cluster.KeyAffinity)
		ms := make([]*gateMember, 256)
		for i := range ms {
			ms[i] = &gateMember{id: i, bound: 8}
			f.Add(ms[i], 1, ms[i].offer)
		}
		f.SetMaxInFlight(400)
		zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.01, 1, 1<<16-1)
		keys := make([]uint64, 1<<16)
		for i := range keys {
			keys[i] = zipf.Uint64()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ms[(2*i)&255].drain()
			ms[(2*i+1)&255].drain()
			f.Dispatch(cluster.Request{Key: keys[i&(1<<16-1)], Cost: 1}, i)
		}
	}},
	{"smartconf/internal/cluster.BenchmarkFleetDispatchRefusedByAll", func(b *testing.B) {
		f := cluster.NewFleet[int](cluster.KeyAffinity)
		for i := 0; i < 256; i++ {
			m := &gateMember{id: i}
			f.Add(m, 1, m.offer)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Dispatch(cluster.Request{Key: uint64(i), Cost: 1}, i)
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

package workload

import (
	"testing"
	"time"
)

func TestYCSBDeterminism(t *testing.T) {
	phase := YCSBPhase{WriteRatio: 0.5, RequestBytes: 1 << 20, OpsPerSec: 100}
	a := NewYCSB(42, 1000, phase)
	b := NewYCSB(42, 1000, phase)
	for i := 0; i < 100; i++ {
		if a.NextInterarrival() != b.NextInterarrival() {
			t.Fatal("interarrival streams diverge for identical seeds")
		}
		oa, ob := a.NextOp(), b.NextOp()
		if oa != ob {
			t.Fatalf("op streams diverge: %+v vs %+v", oa, ob)
		}
	}
}

func TestYCSBWriteRatio(t *testing.T) {
	phase := YCSBPhase{WriteRatio: 0.7, RequestBytes: 1024, OpsPerSec: 100}
	y := NewYCSB(1, 1000, phase)
	writes := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if y.NextOp().Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.67 || frac > 0.73 {
		t.Errorf("write fraction = %v, want ≈0.7", frac)
	}
}

func TestYCSBRequestSizeJitter(t *testing.T) {
	phase := YCSBPhase{WriteRatio: 1, RequestBytes: 1000, OpsPerSec: 100}
	y := NewYCSB(2, 10, phase)
	var sum int64
	for i := 0; i < 5000; i++ {
		b := y.NextOp().Bytes
		if b < 800 || b > 1200 {
			t.Fatalf("request bytes %d outside ±20%% jitter band", b)
		}
		sum += b
	}
	mean := float64(sum) / 5000
	if mean < 950 || mean > 1050 {
		t.Errorf("mean request bytes = %v, want ≈1000", mean)
	}
}

func TestYCSBArrivalRate(t *testing.T) {
	phase := YCSBPhase{WriteRatio: 1, RequestBytes: 1, OpsPerSec: 50}
	y := NewYCSB(3, 10, phase)
	var total time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		total += y.NextInterarrival()
	}
	rate := float64(n) / total.Seconds()
	if rate < 45 || rate > 55 {
		t.Errorf("arrival rate = %v, want ≈50", rate)
	}
}

func TestYCSBIdlePhase(t *testing.T) {
	y := NewYCSB(4, 10, YCSBPhase{OpsPerSec: 0})
	if got := y.NextInterarrival(); got < time.Minute {
		t.Errorf("idle interarrival = %v, want huge", got)
	}
}

func TestYCSBSetPhase(t *testing.T) {
	y := NewYCSB(5, 10, YCSBPhase{WriteRatio: 0, RequestBytes: 10, OpsPerSec: 1})
	y.SetPhase(YCSBPhase{WriteRatio: 1, RequestBytes: 10, OpsPerSec: 1})
	for i := 0; i < 100; i++ {
		if !y.NextOp().Write {
			t.Fatal("after SetPhase(WriteRatio=1) saw a read")
		}
	}
	if y.Phase().WriteRatio != 1 {
		t.Error("Phase() does not reflect SetPhase")
	}
}

func TestPhaseAt(t *testing.T) {
	phases := []YCSBPhase{
		{Name: "p1", Duration: 100 * time.Second},
		{Name: "p2", Duration: 200 * time.Second},
	}
	p, ok := PhaseAt(phases, 50*time.Second)
	if !ok || p.Name != "p1" {
		t.Errorf("at 50s: %v %v", p.Name, ok)
	}
	p, ok = PhaseAt(phases, 150*time.Second)
	if !ok || p.Name != "p2" {
		t.Errorf("at 150s: %v %v", p.Name, ok)
	}
	p, ok = PhaseAt(phases, 500*time.Second)
	if ok || p.Name != "p2" {
		t.Errorf("past end: %v %v (want p2, exhausted)", p.Name, ok)
	}
	// Terminal phase (Duration 0) never exhausts.
	phases[1].Duration = 0
	p, ok = PhaseAt(phases, 1e9*time.Second)
	if !ok || p.Name != "p2" {
		t.Errorf("terminal: %v %v", p.Name, ok)
	}
	if _, ok := PhaseAt(nil, 0); ok {
		t.Error("empty schedule should report not-ok")
	}
}

// TestYCSBPhaseShiftDeterminism drives two identically seeded generators
// through the same phase schedule and demands bit-identical event streams:
// a phase boundary must not introduce any seed-independent state.
func TestYCSBPhaseShiftDeterminism(t *testing.T) {
	phases := []YCSBPhase{
		{Name: "p1", Duration: 10 * time.Second, WriteRatio: 1, RequestBytes: 1 << 20, OpsPerSec: 100},
		{Name: "p2", WriteRatio: 0.2, RequestBytes: 2 << 20, OpsPerSec: 40},
	}
	run := func() []Op {
		g := NewYCSB(77, 1000, phases[0])
		var now time.Duration
		var ops []Op
		for i := 0; i < 2000; i++ {
			if p, _ := PhaseAt(phases, now); p.Name != g.Phase().Name {
				g.SetPhase(p)
			}
			now += g.NextInterarrival()
			ops = append(ops, g.NextOp())
		}
		return ops
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverges across identically seeded runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestLLMGenDeterminismAcrossPhaseShift(t *testing.T) {
	phases := []LLMPhase{
		{Name: "chat", Duration: 5 * time.Second, RequestsPerSec: 50, PromptMean: 200, OutputMean: 100},
		{Name: "summarize", RequestsPerSec: 10, PromptMean: 1800, OutputMean: 220},
	}
	type ev struct {
		gap time.Duration
		req LLMRequest
	}
	run := func() []ev {
		g := NewLLMGen(99, phases[0])
		var now time.Duration
		var evs []ev
		for i := 0; i < 2000; i++ {
			if p, _ := LLMPhaseAt(phases, now); p.Name != g.Phase().Name {
				g.SetPhase(p)
			}
			gap := g.NextInterarrival()
			now += gap
			evs = append(evs, ev{gap, g.NextRequest()})
		}
		return evs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverges across identically seeded runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestLLMGenTokenDistribution(t *testing.T) {
	g := NewLLMGen(7, LLMPhase{RequestsPerSec: 10, PromptMean: 400, OutputMean: 150})
	var promptSum, outSum int64
	const n = 20000
	for i := 0; i < n; i++ {
		r := g.NextRequest()
		if r.Prompt < 1 || r.Prompt > 8*400 {
			t.Fatalf("prompt %d outside [1, 8*mean] clamp", r.Prompt)
		}
		if r.Output < 1 || r.Output > 8*150 {
			t.Fatalf("output %d outside [1, 8*mean] clamp", r.Output)
		}
		promptSum += int64(r.Prompt)
		outSum += int64(r.Output)
	}
	if mean := float64(promptSum) / n; mean < 360 || mean > 440 {
		t.Errorf("prompt mean = %.1f, want ≈400 (lognormal mean correction)", mean)
	}
	if mean := float64(outSum) / n; mean < 135 || mean > 165 {
		t.Errorf("output mean = %.1f, want ≈150", mean)
	}
	if got := (LLMRequest{Prompt: 3, Output: 4}).Tokens(); got != 7 {
		t.Errorf("Tokens() = %d, want 7", got)
	}
}

func TestLLMGenArrivalRate(t *testing.T) {
	g := NewLLMGen(8, LLMPhase{RequestsPerSec: 25, PromptMean: 10, OutputMean: 10})
	var total time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		total += g.NextInterarrival()
	}
	if rate := float64(n) / total.Seconds(); rate < 22.5 || rate > 27.5 {
		t.Errorf("arrival rate = %.2f, want ≈25", rate)
	}
	idle := NewLLMGen(9, LLMPhase{})
	if got := idle.NextInterarrival(); got < time.Minute {
		t.Errorf("idle interarrival = %v, want huge", got)
	}
}

// TestLLMPhaseAtTerminalSemantics pins the duration-0 last-phase contract
// for LLM schedules, mirroring TestPhaseAt for YCSB ones.
func TestLLMPhaseAtTerminalSemantics(t *testing.T) {
	phases := []LLMPhase{
		{Name: "p1", Duration: 100 * time.Second},
		{Name: "p2", Duration: 200 * time.Second},
	}
	if p, ok := LLMPhaseAt(phases, 50*time.Second); !ok || p.Name != "p1" {
		t.Errorf("at 50s: %v %v", p.Name, ok)
	}
	if p, ok := LLMPhaseAt(phases, 100*time.Second); !ok || p.Name != "p2" {
		t.Errorf("at boundary 100s: %v %v (boundary belongs to the next phase)", p.Name, ok)
	}
	if p, ok := LLMPhaseAt(phases, 500*time.Second); ok || p.Name != "p2" {
		t.Errorf("past end: %v %v (want p2, exhausted)", p.Name, ok)
	}
	phases[1].Duration = 0 // terminal phase never exhausts
	if p, ok := LLMPhaseAt(phases, 1e9*time.Second); !ok || p.Name != "p2" {
		t.Errorf("terminal: %v %v", p.Name, ok)
	}
	if _, ok := LLMPhaseAt(nil, 0); ok {
		t.Error("empty schedule should report not-ok")
	}
}

// TestPhaseAtBoundaryInstant pins which phase owns the exact boundary
// instant for YCSB schedules: the boundary belongs to the NEXT phase.
func TestPhaseAtBoundaryInstant(t *testing.T) {
	phases := []YCSBPhase{
		{Name: "p1", Duration: 100 * time.Second},
		{Name: "p2"},
	}
	if p, ok := PhaseAt(phases, 100*time.Second); !ok || p.Name != "p2" {
		t.Errorf("at boundary: %v %v, want p2", p.Name, ok)
	}
	if p, ok := PhaseAt(phases, 100*time.Second-time.Nanosecond); !ok || p.Name != "p1" {
		t.Errorf("just before boundary: %v %v, want p1", p.Name, ok)
	}
}

func TestWordCountJob(t *testing.T) {
	j := WordCountJob{
		Name:       "phase-1",
		InputBytes: 640 << 20,
		SplitBytes: 64 << 20,
	}
	if got := j.MapTasks(); got != 10 {
		t.Errorf("MapTasks = %d, want 10", got)
	}
	if got := j.IntermediateBytesPerTask(); got != 64<<20 {
		t.Errorf("intermediate = %d, want 64MB", got)
	}

	// Non-even split rounds up.
	j2 := WordCountJob{InputBytes: 100, SplitBytes: 64}
	if got := j2.MapTasks(); got != 2 {
		t.Errorf("MapTasks = %d, want 2", got)
	}
	// Spill ratio scales the footprint.
	j3 := WordCountJob{InputBytes: 100, SplitBytes: 50, SpillRatio: 0.5}
	if got := j3.IntermediateBytesPerTask(); got != 25 {
		t.Errorf("intermediate = %d, want 25", got)
	}
	if (WordCountJob{InputBytes: 10}).MapTasks() != 0 {
		t.Error("zero split size should yield zero tasks")
	}
}

func TestStringers(t *testing.T) {
	p := YCSBPhase{Name: "p", WriteRatio: 1, RequestBytes: 1 << 20, OpsPerSec: 10}
	if p.String() == "" {
		t.Error("YCSBPhase.String empty")
	}
	l := LLMPhase{Name: "l", RequestsPerSec: 4, PromptMean: 200, OutputMean: 150}
	if l.String() == "" {
		t.Error("LLMPhase.String empty")
	}
	j := WordCountJob{Name: "j", InputBytes: 640 << 20, SplitBytes: 64 << 20, Parallelism: 2}
	if j.String() == "" {
		t.Error("WordCountJob.String empty")
	}
}

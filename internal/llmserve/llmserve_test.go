package llmserve

import (
	"testing"
	"time"

	"smartconf/internal/memsim"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// testConfig is a small calibration that keeps unit-test arithmetic legible:
// 1 KiB per KV token, no scratch, no base heap unless a test sets them.
func testConfig() Config {
	return Config{
		KVBytesPerToken: 1 << 10,
		StepBase:        time.Millisecond,
		StepPerToken:    10 * time.Microsecond,
		PrefillChunk:    64,
	}
}

// drive offers n requests from a seeded generator and runs to completion.
func drive(t *testing.T, sv *Server, s *sim.Simulation, seed int64, phase workload.LLMPhase, n int) {
	t.Helper()
	gen := workload.NewLLMGen(seed, phase)
	var next func()
	left := n
	next = func() {
		if left == 0 {
			return
		}
		left--
		sv.Offer(gen.NextRequest())
		s.After(gen.NextInterarrival(), next)
	}
	s.After(0, next)
	s.Run()
}

func TestCompletionReleasesAllKV(t *testing.T) {
	s := sim.New()
	heap := memsim.NewHeap(1 << 30)
	cfg := testConfig()
	cfg.BaseHeapBytes = 1 << 20
	sv := New(s, heap, cfg)

	phase := workload.LLMPhase{RequestsPerSec: 50, PromptMean: 100, OutputMean: 40}
	drive(t, sv, s, 7, phase, 40)

	if sv.Crashed() {
		t.Fatal("server crashed on an oversized heap")
	}
	if got := sv.Completed(); got != 40 {
		t.Fatalf("completed = %d, want 40", got)
	}
	if sv.ResidentTokens() != 0 || sv.PromptTokens() != 0 {
		t.Fatalf("resident/prompt tokens not drained: %d/%d",
			sv.ResidentTokens(), sv.PromptTokens())
	}
	if heap.Used() != cfg.BaseHeapBytes {
		t.Fatalf("heap did not drain to base: used %d, base %d", heap.Used(), cfg.BaseHeapBytes)
	}
	if sv.TTFT().Count() != 40 || sv.E2E().Count() != 40 {
		t.Fatalf("latency samples ttft=%d e2e=%d, want 40 each",
			sv.TTFT().Count(), sv.E2E().Count())
	}
	if sv.OutputTokens() <= 0 {
		t.Fatal("no goodput recorded")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int64, int64, int64) {
		s := sim.New()
		heap := memsim.NewHeap(8 << 20) // tight: forces evictions
		sv := New(s, heap, testConfig())
		phase := workload.LLMPhase{RequestsPerSec: 200, PromptMean: 150, OutputMean: 120}
		drive(t, sv, s, 42, phase, 300)
		return sv.Completed(), sv.OutputTokens(), sv.Evictions(), int64(heap.Peak())
	}
	c1, o1, e1, p1 := run()
	c2, o2, e2, p2 := run()
	if c1 != c2 || o1 != o2 || e1 != e2 || p1 != p2 {
		t.Fatalf("runs diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			c1, o1, e1, p1, c2, o2, e2, p2)
	}
}

func TestAdmissionRespectsTokenBound(t *testing.T) {
	s := sim.New()
	heap := memsim.NewHeap(1 << 30)
	sv := New(s, heap, testConfig())
	sv.SetMaxBatchedTokens(150)

	// The bound counts admitted prompt tokens, so three 100-token prompts
	// must serialize: a second admission would put 200 > 150 in the batch.
	for i := 0; i < 3; i++ {
		if !sv.Offer(workload.LLMRequest{Prompt: 100, Output: 10}) {
			t.Fatalf("offer %d refused", i)
		}
	}
	for s.Step() {
		if sv.RunningLen() > 1 {
			t.Fatalf("batch holds %d sequences under a 150-token bound", sv.RunningLen())
		}
		if c := sv.PromptTokens(); c > 150 {
			t.Fatalf("batch holds %d prompt tokens under a 150-token bound", c)
		}
	}
	if got := sv.Completed(); got != 3 {
		t.Fatalf("completed = %d, want 3", got)
	}
}

func TestZeroBoundParksAndRecovers(t *testing.T) {
	s := sim.New()
	heap := memsim.NewHeap(1 << 30)
	sv := New(s, heap, testConfig())
	sv.SetWaitingLimit(1)
	sv.SetMaxBatchedTokens(0) // admission frozen

	if !sv.Offer(workload.LLMRequest{Prompt: 10, Output: 5}) {
		t.Fatal("first offer should queue")
	}
	for i := 0; i < 4; i++ {
		if sv.Offer(workload.LLMRequest{Prompt: 10, Output: 5}) {
			t.Fatal("offer beyond the waiting limit should be refused")
		}
	}
	if got := sv.Rejected(); got != 4 {
		t.Fatalf("rejected = %d, want 4", got)
	}
	s.RunUntil(time.Second)
	if sv.Completed() != 0 {
		t.Fatal("nothing should complete while the bound is zero")
	}
	// The knob rises (a controller found headroom): the parked queue drains.
	sv.SetMaxBatchedTokens(1 << 20)
	s.Run()
	if got := sv.Completed(); got != 1 {
		t.Fatalf("completed = %d after raising the bound, want 1", got)
	}
}

func TestEvictionPreemptsInsteadOfCrashing(t *testing.T) {
	s := sim.New()
	// Room for one full sequence (20 KV tokens) plus most of a second:
	// decode growth must preempt, not OOM.
	heap := memsim.NewHeap(30 << 10)
	sv := New(s, heap, testConfig())

	sv.Offer(workload.LLMRequest{Prompt: 10, Output: 10})
	sv.Offer(workload.LLMRequest{Prompt: 10, Output: 10})
	s.Run()

	if sv.Crashed() || heap.OOM() {
		t.Fatal("KV pressure should preempt, not crash")
	}
	if sv.Evictions() == 0 {
		t.Fatal("expected at least one preemption on a 30-token heap")
	}
	if got := sv.Completed(); got != 2 {
		t.Fatalf("completed = %d, want 2 (preempted work restarts)", got)
	}
	if heap.Used() != 0 {
		t.Fatalf("heap not drained: %d bytes", heap.Used())
	}
}

func TestScratchOOMCrashes(t *testing.T) {
	s := sim.New()
	heap := memsim.NewHeap(16 << 10)
	cfg := testConfig()
	cfg.ScratchBytesPerToken = 1 << 10 // scratch rivals KV: mid-kernel spike
	sv := New(s, heap, cfg)

	sv.Offer(workload.LLMRequest{Prompt: 12, Output: 8})
	s.Run()

	if !sv.Crashed() || !heap.OOM() {
		t.Fatal("activation scratch beyond capacity must crash the server")
	}
	if sv.Dropped() == 0 {
		t.Fatal("in-flight work on a crashed server must count as dropped")
	}
	if sv.Offer(workload.LLMRequest{Prompt: 1, Output: 1}) {
		t.Fatal("a crashed server must refuse new work")
	}
}

func TestGoodputCountsCompletedOutputsOnly(t *testing.T) {
	s := sim.New()
	heap := memsim.NewHeap(1 << 30)
	sv := New(s, heap, testConfig())

	sv.Offer(workload.LLMRequest{Prompt: 5, Output: 7})
	sv.Offer(workload.LLMRequest{Prompt: 5, Output: 11})
	s.Run()

	if got := sv.OutputTokens(); got != 18 {
		t.Fatalf("output tokens = %d, want 18", got)
	}
	if sv.E2E().Count() != 2 {
		t.Fatalf("e2e samples = %d, want 2", sv.E2E().Count())
	}
	// TTFT is strictly earlier than end-to-end for multi-token outputs.
	if sv.TTFT().Worst() >= sv.E2E().Worst() {
		t.Fatalf("ttft %v should precede e2e %v", sv.TTFT().Worst(), sv.E2E().Worst())
	}
}

package llmserve

import (
	"testing"
	"time"

	"smartconf/internal/memsim"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// TestSteadyStateRequestPathZeroAlloc is the raw-speed gate for this
// substrate: once the waiting array, the sequence free list, the prefill
// queue, the first-token list and the metrics windows have grown to their
// working size, offering a request and decoding it to completion must not
// allocate. Every steady-state allocation multiplies by the 10M requests a
// -scale run pushes through. The shallow input turns small requests over
// quickly; the deep one keeps ≥128 sequences decoding at once, the regime of
// the LLM-KV figure and chaos runs.
func TestSteadyStateRequestPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name       string
		heap       int64
		req        workload.LLMRequest
		minRunning int
	}{
		{"shallow", 16 << 30, workload.LLMRequest{Prompt: 32, Output: 16}, 1},
		{"deep", 64 << 30, workload.LLMRequest{Prompt: 32, Output: 512}, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			sv := New(s, memsim.NewHeap(tc.heap), DefaultConfig())
			sv.SetMaxBatchedTokens(1 << 20)

			var now time.Duration
			deepest := 0
			cycle := func() {
				now += 20 * time.Millisecond
				s.RunUntil(now)
				sv.Offer(tc.req)
				deepest = max(deepest, sv.RunningLen())
			}
			// Warm: grow every buffer past its steady-state high watermark.
			for i := 0; i < 2000; i++ {
				cycle()
			}
			deepest = 0

			if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
				t.Fatalf("steady-state request path allocates %.1f objects per cycle, want 0", allocs)
			}
			if sv.Crashed() || sv.Evictions() != 0 {
				t.Fatalf("crashed=%v evictions=%d: the window left the steady decode path", sv.Crashed(), sv.Evictions())
			}
			if sv.Completed() == 0 {
				t.Fatal("no requests completed: the measurement exercised nothing")
			}
			if deepest < tc.minRunning {
				t.Fatalf("batch peaked at %d sequences, want ≥ %d", deepest, tc.minRunning)
			}
		})
	}
}

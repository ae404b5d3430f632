package llmserve

import (
	"testing"
	"time"

	"smartconf/internal/memsim"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// BenchmarkLLMStepDeep times one scheduler step and the retirement that
// ends it, with ~100 sequences decoding at once: the LLM-KV figure regime
// of 150-token prompts and 300-token answers. Step latency is pinned to
// StepBase, so each iteration advances exactly one step; a request arrives
// every third step, which holds the batch at ~100 sequences.
func BenchmarkLLMStepDeep(b *testing.B) {
	cfg := DefaultConfig()
	cfg.StepPerToken = 0
	s := sim.New()
	sv := New(s, memsim.NewHeap(64<<30), cfg)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(sv.RunningLen()), "running")
}

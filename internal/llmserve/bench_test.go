package llmserve

import (
	"testing"
	"time"

	"smartconf/internal/memsim"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// benchLLMStep times one scheduler step and the retirement that ends it.
// Step latency is pinned to StepBase, so each iteration advances exactly one
// step, and req arrives every third step: the batch holds about output/3
// sequences, nearly all decoding.
func benchLLMStep(b *testing.B, heap int64, req workload.LLMRequest) {
	cfg := DefaultConfig()
	cfg.StepPerToken = 0
	s := sim.New()
	sv := New(s, memsim.NewHeap(heap), cfg)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(sv.RunningLen()), "running")
}

// BenchmarkLLMStepDeep holds ~100 sequences decoding at once: the LLM-KV
// figure regime of 150-token prompts and 300-token answers.
func BenchmarkLLMStepDeep(b *testing.B) {
	benchLLMStep(b, 64<<30, workload.LLMRequest{Prompt: 150, Output: 300})
}

// BenchmarkLLMStepShallow holds ~2 sequences: a completion every third step
// from a batch too small for retirement bookkeeping to pay for itself, the
// regime of the -scale llm and fleetllm members.
func BenchmarkLLMStepShallow(b *testing.B) {
	benchLLMStep(b, 16<<30, workload.LLMRequest{Prompt: 8, Output: 6})
}

// BenchmarkLLMStepWide holds ~1000 sequences, ten times the LLM-KV batch.
func BenchmarkLLMStepWide(b *testing.B) {
	benchLLMStep(b, 1<<40, workload.LLMRequest{Prompt: 150, Output: 3000})
}

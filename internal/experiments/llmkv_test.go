package experiments

import (
	"testing"
	"time"
)

func TestLLMKVProfileShape(t *testing.T) {
	p := ProfileLLMKV()
	if len(p.Settings) != 4 || p.TotalSamples() != 40 {
		t.Fatalf("profile: %d settings, %d samples", len(p.Settings), p.TotalSamples())
	}
	m, err := p.Fit()
	if err != nil {
		t.Fatal(err)
	}
	// The deputy is prompt-resident KV bytes, but each admitted prompt token
	// drags uncounted decode KV behind it (chat answers run ≈2× the prompt),
	// so the heap grows super-linearly in the bound: α well above 1.
	if m.Alpha < 1.3 || m.Alpha > 3.5 {
		t.Errorf("α = %v heap bytes per prompt-KV byte, want ≈2 (decode amplification)", m.Alpha)
	}
	lambda := p.Lambda()
	if lambda <= 0 || lambda > 0.5 {
		t.Errorf("λ = %v, want small positive", lambda)
	}
	t.Logf("model %v, λ=%.3f, Δ=%.2f", m, lambda, p.Delta())
}

// TestLLMKVDescriptorMatchesRuns pins the scenario descriptor's workload
// text, which LLMKVScenario renders from the phases the profiling campaign
// and the two-phase run execute.
func TestLLMKVDescriptorMatchesRuns(t *testing.T) {
	sc := LLMKVScenario()
	want := [3]string{
		"profiling: 80 req/s, 150/300 tok, sustained @ batch 16k/32k/48k/64k",
		"chat: 60 req/s, 150/300 tok, +60-request bursts every 25s",
		"summarize: 12 req/s, 1800/220 tok, sustained",
	}
	got := [3]string{sc.ProfilingWorkload, sc.PhaseWorkloads[0], sc.PhaseWorkloads[1]}
	if got != want {
		t.Fatalf("descriptor workloads\n  got  %q\n  want %q", got, want)
	}
}

func TestLLMKVTTFTProfileShape(t *testing.T) {
	p := ProfileLLMKVTTFT()
	m, err := p.Fit()
	if err != nil {
		t.Fatal(err)
	}
	// Under overload the admission queue is the binding resource: every
	// extra waiting slot adds its service time to the p95 first-token wait.
	if m.Alpha <= 0.01 || m.Alpha > 1.0 {
		t.Errorf("α = %v s per queue slot, want a clearly positive slope", m.Alpha)
	}
	t.Logf("ttft model %v", m)
}

func TestLLMKVBuggyDefaultOOMs(t *testing.T) {
	res := RunLLMKV(Static(LLMKVScenario().BuggyDefault))
	if res.ConstraintMet || res.Violation != "OOM" {
		t.Fatalf("unbounded default should OOM: %+v", res.Violation)
	}
	if res.ViolatedAt >= llmPhaseShift {
		t.Errorf("unbounded admission should die under chat decode growth, died at %v", res.ViolatedAt)
	}
}

func TestLLMKVPatchDefaultOOMs(t *testing.T) {
	// 65536 prompt tokens is a sensible bound for document batches but
	// chat traffic triples every admitted token: it cannot survive phase 1.
	res := RunLLMKV(Static(LLMKVScenario().PatchDefault))
	if res.ConstraintMet || res.Violation != "OOM" {
		t.Fatalf("document-sized bound should OOM under chat: %+v", res.Violation)
	}
}

func TestLLMKVConservativeStaticMeetsConstraint(t *testing.T) {
	res := RunLLMKV(Static(24576))
	if !res.ConstraintMet {
		t.Fatalf("static 24576 should be safe: violated at %v (%s)", res.ViolatedAt, res.Violation)
	}
	if res.Tradeoff <= 0 {
		t.Error("no goodput recorded")
	}
}

func TestLLMKVSmartConfNeverOOMsAndBeatsBestStatic(t *testing.T) {
	sc := RunLLMKV(SmartConf())
	if !sc.ConstraintMet {
		t.Fatalf("SmartConf OOMed at %v (%s)", sc.ViolatedAt, sc.Violation)
	}
	mem, ok := sc.SeriesByName("used_memory")
	if !ok || len(mem.Points) == 0 {
		t.Fatal("no memory series recorded")
	}
	// Survival must span the whole trace, including the chat→summarize
	// shift, not merely until an early crash stopped the probe.
	if last := mem.Points[len(mem.Points)-1].T; last < llmRunTime-2*time.Second {
		t.Fatalf("memory probe stopped at %v, want full %v run", last, llmRunTime)
	}
	for _, p := range mem.Points {
		if p.V >= float64(llmHeapCapacity) {
			t.Fatalf("memory %v reached device capacity at %v", p.V, p.T)
		}
	}

	// The knob must re-target per phase: chat admissions are throttled hard
	// (uncounted decode KV), documents barely grow, so the summarize-phase
	// bound should be well above the chat-phase bound.
	knob, ok := sc.SeriesByName("max.batched.tokens")
	if !ok {
		t.Fatal("no knob series recorded")
	}
	chatKnob := knob.At(llmPhaseShift - 10*time.Second)
	docKnob := knob.At(llmRunTime - 10*time.Second)
	if chatKnob <= 0 || docKnob < 1.5*chatKnob {
		t.Errorf("knob did not adapt across the shift: chat %v, summarize %v", chatKnob, docKnob)
	}

	// Sweep the static grid for the strongest feasible baseline.
	var best Result
	for _, v := range LLMKVScenario().StaticGrid {
		r := RunLLMKV(Static(v))
		if r.ConstraintMet && (best.Policy.Kind != StaticPolicy || r.Tradeoff > best.Tradeoff) {
			best = r
		}
	}
	if best.Policy.Kind != StaticPolicy {
		t.Fatal("no static setting satisfied the constraint — calibration broken")
	}
	speedup := sc.Speedup(best)
	t.Logf("SmartConf %.1f tok/s vs best static %v %.1f tok/s → speedup %.2f×",
		sc.Tradeoff, best.Policy, best.Tradeoff, speedup)
	if speedup <= 1.05 {
		t.Errorf("SmartConf speedup %.2f× over best static, want > 1.05×", speedup)
	}
}

func TestLLMKVDeterministic(t *testing.T) {
	a := RunLLMKV(SmartConf())
	b := RunLLMKV(SmartConf())
	if a.Tradeoff != b.Tradeoff || a.ConstraintMet != b.ConstraintMet || a.ViolatedAt != b.ViolatedAt {
		t.Fatalf("SmartConf runs diverged: (%v,%v,%v) vs (%v,%v,%v)",
			a.Tradeoff, a.ConstraintMet, a.ViolatedAt,
			b.Tradeoff, b.ConstraintMet, b.ViolatedAt)
	}
	ka, _ := a.SeriesByName("max.batched.tokens")
	kb, _ := b.SeriesByName("max.batched.tokens")
	if len(ka.Points) != len(kb.Points) {
		t.Fatalf("knob series lengths diverged: %d vs %d", len(ka.Points), len(kb.Points))
	}
	for i := range ka.Points {
		if ka.Points[i] != kb.Points[i] {
			t.Fatalf("knob series diverged at %v: %v vs %v",
				ka.Points[i].T, ka.Points[i].V, kb.Points[i].V)
		}
	}
}

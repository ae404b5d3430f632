package workload

import (
	"testing"
	"time"
)

// The arrival stream must behave in the two ways the experiments rely on: a
// seed fully determines the gap stream, and a phase that offers no load (or
// so little that a gap would exceed an hour) waits an hour, not forever.

func TestArrivalDistSeedDeterminism(t *testing.T) {
	for _, rate := range []float64{0.5, 100, 1e5} {
		y1 := NewYCSB(42, 10, YCSBPhase{OpsPerSec: rate})
		y2 := NewYCSB(42, 10, YCSBPhase{OpsPerSec: rate})
		g1 := NewLLMGen(42, LLMPhase{RequestsPerSec: rate})
		g2 := NewLLMGen(42, LLMPhase{RequestsPerSec: rate})
		other := NewYCSB(43, 10, YCSBPhase{OpsPerSec: rate})
		differs := false
		for i := 0; i < 500; i++ {
			a := y1.NextInterarrival()
			if a != y2.NextInterarrival() {
				t.Fatalf("rate=%v: same seed diverged at YCSB draw %d", rate, i)
			}
			if g1.NextInterarrival() != g2.NextInterarrival() {
				t.Fatalf("rate=%v: same seed diverged at LLM draw %d", rate, i)
			}
			differs = differs || a != other.NextInterarrival()
		}
		if !differs {
			t.Errorf("rate=%v: seeds 42 and 43 drew identical gap streams", rate)
		}
	}
}

func TestArrivalIdlePhaseAllDists(t *testing.T) {
	for _, rate := range []float64{0, -1} {
		if got := NewYCSB(4, 10, YCSBPhase{OpsPerSec: rate}).NextInterarrival(); got != time.Hour {
			t.Errorf("YCSB at %v ops/s: interarrival = %v, want 1h", rate, got)
		}
		if got := NewLLMGen(4, LLMPhase{RequestsPerSec: rate}).NextInterarrival(); got != time.Hour {
			t.Errorf("LLM at %v req/s: interarrival = %v, want 1h", rate, got)
		}
	}
	// At one arrival per 10⁹ s every exponential draw above 3.6·10⁻⁶ (all
	// but a few in a million) exceeds an hour and is clamped to it.
	y := NewYCSB(4, 10, YCSBPhase{OpsPerSec: 1e-9})
	for i := 0; i < 100; i++ {
		if got := y.NextInterarrival(); got != time.Hour {
			t.Fatalf("draw %d at 1e-9 ops/s: interarrival = %v, want the 1h clamp", i, got)
		}
	}
}

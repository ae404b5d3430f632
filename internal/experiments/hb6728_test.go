package experiments

import (
	"testing"
	"time"

	"smartconf/internal/core"
)

func TestHB6728ProfileShape(t *testing.T) {
	p := ProfileHB6728()
	if len(p.Settings) != 4 || p.TotalSamples() != 40 {
		t.Fatalf("profile: %d settings, %d samples", len(p.Settings), p.TotalSamples())
	}
	m, err := p.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if m.Alpha <= 0 {
		t.Errorf("α = %v, want positive (more response bytes → more heap)", m.Alpha)
	}
	t.Logf("model %v, λ=%.3f pole=%.3f", m, p.Lambda(), core.PoleFromDelta(p.Delta()))
}

func TestHB6728DefaultsOOM(t *testing.T) {
	sc := HB6728Scenario()
	buggy := RunHB6728(Static(sc.BuggyDefault))
	if buggy.ConstraintMet || buggy.Violation != "OOM" {
		t.Errorf("unbounded default should OOM: %+v", buggy.Violation)
	}
	patch := RunHB6728(Static(sc.PatchDefault))
	if patch.ConstraintMet {
		t.Logf("patched 1GB default fails at %v (%s)", patch.ViolatedAt, patch.Violation)
	} else if patch.Violation != "OOM" {
		t.Errorf("patched default expected OOM, got %q", patch.Violation)
	}
	if patch.ConstraintMet {
		t.Error("patched 1GB default should still OOM (bound above the heap)")
	}
}

func TestHB6728SmartConfMeetsConstraintAndBeatsStatic(t *testing.T) {
	sc := RunHB6728(SmartConf())
	if !sc.ConstraintMet {
		t.Fatalf("SmartConf violated at %v (%s)", sc.ViolatedAt, sc.Violation)
	}
	var best Result
	for _, v := range HB6728Scenario().StaticGrid {
		r := RunHB6728(Static(v))
		t.Logf("static %.0fMB: met=%v tput=%.2f", v/(1<<20), r.ConstraintMet, r.Tradeoff)
		if r.ConstraintMet && (best.Policy.Kind != StaticPolicy || r.Tradeoff > best.Tradeoff) {
			best = r
		}
	}
	if best.Policy.Kind != StaticPolicy {
		t.Fatal("no static setting satisfied the constraint")
	}
	speedup := sc.Speedup(best)
	t.Logf("SmartConf %.2f vs best static %v %.2f → %.2f×", sc.Tradeoff, best.Policy, best.Tradeoff, speedup)
	if speedup < 1.02 {
		t.Errorf("SmartConf speedup %.2f× too small", speedup)
	}
	_ = time.Second
}

package experiments

import (
	"testing"
	"time"

	"smartconf/internal/core"
)

// Diagnostic sweeps used during calibration; kept as regression telemetry.
func TestDiagHB3813Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	for _, v := range []float64{25, 50, 75, 90, 110, 130, 150, 200, 300, 1000} {
		r := RunHB3813(Static(v))
		t.Logf("static %5.0f: met=%5v at=%8v tput=%6.2f", v, r.ConstraintMet, r.ViolatedAt, r.Tradeoff)
	}
	r := RunHB3813(SmartConf())
	knob, _ := r.SeriesByName("max.queue.size")
	t.Logf("smartconf: met=%v at=%v tput=%.2f knob(100s)=%.0f knob(600s)=%.0f",
		r.ConstraintMet, r.ViolatedAt, r.Tradeoff, knob.At(100*time.Second), knob.At(600*time.Second))
}

func TestDiagHB6728Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	for _, v := range []float64{32, 64, 96, 128, 160, 192, 256} {
		r := RunHB6728(Static(v * float64(1<<20)))
		t.Logf("static %4.0fMB: met=%5v at=%8v tput=%6.2f", v, r.ConstraintMet, r.ViolatedAt, r.Tradeoff)
	}
	p := ProfileHB6728()
	t.Logf("profile λ=%.3f pole=%.3f", p.Lambda(), core.PoleFromDelta(p.Delta()))
	r := RunHB6728(SmartConf())
	knob, _ := r.SeriesByName("response.queue.maxsize")
	mem, _ := r.SeriesByName("used_memory")
	t.Logf("smartconf: met=%v at=%v tput=%.2f knobMB(100s)=%.0f knobMB(600s)=%.0f memMaxMB=%.0f",
		r.ConstraintMet, r.ViolatedAt, r.Tradeoff,
		knob.At(100*time.Second)/(1<<20), knob.At(600*time.Second)/(1<<20), mem.Max()/(1<<20))
}

func TestDiagCA6059Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	for _, v := range []float64{8, 16, 24, 32, 40, 48, 64, 96, 128, 192} {
		r := RunCA6059(Static(v * float64(1<<20)))
		t.Logf("static %4.0fMB: met=%5v at=%8v lat=%6.2fms", v, r.ConstraintMet, r.ViolatedAt, r.Tradeoff)
	}
	p := ProfileCA6059()
	t.Logf("profile λ=%.3f pole=%.3f", p.Lambda(), core.PoleFromDelta(p.Delta()))
	r := RunCA6059(SmartConf())
	knob, _ := r.SeriesByName("memtable_total_space")
	mem, _ := r.SeriesByName("used_memory")
	t.Logf("smartconf: met=%v at=%v lat=%.2fms knobMB(100s)=%.0f knobMB(600s)=%.0f memMaxMB=%.0f",
		r.ConstraintMet, r.ViolatedAt, r.Tradeoff,
		knob.At(100*time.Second)/(1<<20), knob.At(600*time.Second)/(1<<20), mem.Max()/(1<<20))
}

func TestDiagHB2149Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	for _, v := range []float64{0.05, 0.1, 0.2, 0.25, 0.35, 0.5, 0.65, 0.8, 0.95} {
		r := RunHB2149(Static(v))
		t.Logf("static %.2f: met=%5v at=%8v tput=%6.2f (predicted block %.1fs)", v, r.ConstraintMet, r.ViolatedAt, r.Tradeoff, hb2149Block(v))
	}
	p := ProfileHB2149()
	m, _ := p.Fit()
	t.Logf("profile model=%v λ=%.3f", m, p.Lambda())
	r := RunHB2149(SmartConf())
	knob, _ := r.SeriesByName("flush_fraction")
	t.Logf("smartconf: met=%v at=%v tput=%.2f frac(100s)=%.2f frac(600s)=%.2f",
		r.ConstraintMet, r.ViolatedAt, r.Tradeoff, knob.At(100*time.Second), knob.At(600*time.Second))
}

func TestDiagHD4995Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	for _, v := range []float64{2000, 5000, 10000, 20000, 30000, 40000, 60000, 100000, 1e7} {
		r := RunHD4995(Static(v))
		t.Logf("static %8.0f: met=%5v at=%8v du=%6.1fs", v, r.ConstraintMet, r.ViolatedAt, r.Tradeoff)
	}
	p := ProfileHD4995()
	m, _ := p.Fit()
	t.Logf("profile model=%v λ=%.3f", m, p.Lambda())
	r := RunHD4995(SmartConf())
	knob, _ := r.SeriesByName("content-summary.limit")
	t.Logf("smartconf: met=%v at=%v du=%.1fs limit(300s)=%.0f limit(650s)=%.0f",
		r.ConstraintMet, r.ViolatedAt, r.Tradeoff, knob.At(300*time.Second), knob.At(650*time.Second))
}

func TestDiagMR2820Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	for _, v := range []float64{0, 1, 50, 100, 150, 200, 230, 260, 300, 350, 420, 460} {
		r := RunMR2820(Static(v * float64(1<<20)))
		t.Logf("static %4.0fMB: met=%5v viol=%q makespan=%6.0fs", v, r.ConstraintMet, r.Violation, r.Tradeoff)
	}
	p := ProfileMR2820()
	m, _ := p.Fit()
	t.Logf("profile model=%v λ=%.3f", m, p.Lambda())
	r := RunMR2820(SmartConf())
	knob, _ := r.SeriesByName("minspacestart")
	t.Logf("smartconf: met=%v viol=%q makespan=%.0fs knobMB(60s)=%.0f",
		r.ConstraintMet, r.Violation, r.Tradeoff, knob.At(60*time.Second)/(1<<20))
}

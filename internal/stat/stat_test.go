package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 7},
		{"symmetric", []float64{-2, 2}, 0},
		{"typical", []float64{1, 2, 3, 4}, 2.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of single sample = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	if got := Min(nil); !math.IsInf(got, 1) {
		t.Errorf("Min(nil) = %v, want +Inf", got)
	}
	if got := Max(nil); !math.IsInf(got, -1) {
		t.Errorf("Max(nil) = %v, want -Inf", got)
	}
}

func TestCoV(t *testing.T) {
	if got := CoV([]float64{5, 5, 5}); got != 0 {
		t.Errorf("CoV of constant = %v, want 0", got)
	}
	if got := CoV([]float64{0, 0}); got != 0 {
		t.Errorf("CoV at zero mean = %v, want 0 (degenerate)", got)
	}
	// mean 10, stddev 2 → CoV 0.2
	if got := CoV([]float64{8, 12, 8, 12}); !almostEqual(got, 0.2, 1e-12) {
		t.Errorf("CoV = %v, want 0.2", got)
	}
	// CoV uses |σ/μ| so negative-mean series still yield positive CoV.
	if got := CoV([]float64{-8, -12, -8, -12}); !almostEqual(got, 0.2, 1e-12) {
		t.Errorf("CoV(negative) = %v, want 0.2", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || !almostEqual(s.Mean, 2, 1e-12) || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestLinearFitExact(t *testing.T) {
	// y = 3x + 2, noiseless.
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 2
	}
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 3, 1e-9) || !almostEqual(fit.Intercept, 2, 1e-9) {
		t.Errorf("fit = %+v, want slope 3 intercept 2", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Errorf("R² = %v, want 1", fit.R2)
	}
	if got := fit.Predict(10); !almostEqual(got, 32, 1e-9) {
		t.Errorf("Predict(10) = %v, want 32", got)
	}
}

func TestLinearFitNegativeSlope(t *testing.T) {
	// The HB2149 / MR2820 plants have negative slopes; fitting must be
	// sign-correct.
	xs := []float64{0, 0.25, 0.5, 0.75, 1}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 10 - 8*x
	}
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, -8, 1e-9) {
		t.Errorf("slope = %v, want -8", fit.Slope)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{2}); err == nil {
		t.Error("expected error for single sample")
	}
	if _, err := LinearFit([]float64{1, 1, 1}, []float64{2, 3, 4}); err == nil {
		t.Error("expected error for constant x")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
}

func TestLinearFitOrigin(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	fit, err := LinearFitOrigin(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-9) || fit.Intercept != 0 {
		t.Errorf("fit = %+v, want slope 2 through origin", fit)
	}
	if _, err := LinearFitOrigin([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("expected error for all-zero x")
	}
}

// Property: fitting recovers a known slope from noisy data to within a
// tolerance that shrinks with noise amplitude.
func TestLinearFitRecoversSlopeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(slopeSeed, interceptSeed int16) bool {
		slope := float64(slopeSeed%100)/10 + 0.1 // avoid 0 slope
		intercept := float64(interceptSeed % 50)
		var xs, ys []float64
		for i := 0; i < 200; i++ {
			x := float64(i) / 10
			noise := rng.NormFloat64() * 0.01
			xs = append(xs, x)
			ys = append(ys, slope*x+intercept+noise)
		}
		fit, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		return almostEqual(fit.Slope, slope, 0.01) && almostEqual(fit.Intercept, intercept, 0.1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("expected error on empty input")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("expected error on out-of-range q")
	}
	if got, err := Percentile([]float64{7}, 99); err != nil || got != 7 {
		t.Errorf("Percentile(single, 99) = %v, %v", got, err)
	}
}

// Property: percentiles are monotone in q and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 100; q += 10 {
			v, err := Percentile(xs, q)
			if err != nil {
				return false
			}
			if v < prev || v < Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	got, err := Percentiles(xs, 0, 25, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{15, 20, 35, 50}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-9) {
			t.Errorf("Percentiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := Percentiles(nil, 50); err == nil {
		t.Error("expected error on empty input")
	}
	if _, err := Percentiles(xs, 50, 101); err == nil {
		t.Error("expected error on out-of-range q")
	}
	if got, err := Percentiles(xs); err != nil || len(got) != 0 {
		t.Errorf("Percentiles with no qs = %v, %v; want empty, nil", got, err)
	}
	// Input must not be mutated (no in-place sort).
	shuffled := []float64{9, 1, 5}
	if _, err := Percentiles(shuffled, 50); err != nil {
		t.Fatal(err)
	}
	if shuffled[0] != 9 || shuffled[1] != 1 || shuffled[2] != 5 {
		t.Errorf("Percentiles mutated its input: %v", shuffled)
	}
}

// Property: Percentiles agrees with Percentile called per quantile.
func TestPercentilesMatchesPercentile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	qs := []float64{0, 10, 33.3, 50, 66.6, 90, 95, 99, 100}
	got, err := Percentiles(xs, qs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := Percentile(xs, q)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("Percentiles[%v] = %v, Percentile = %v", q, got[i], want)
		}
	}
}

// BenchmarkPercentiles2 is p50+p95 from one sorted copy: the exact path
// Latency.Snapshot keeps for windows at or below metrics.ExactWindowThreshold.
func BenchmarkPercentiles2(b *testing.B) {
	xs := make([]float64, 512)
	for i := range xs {
		xs[i] = float64((i * 7919) % 512)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Percentiles(xs, 50, 95); err != nil {
			b.Fatal(err)
		}
	}
}

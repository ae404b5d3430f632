package stat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactNearestRank is the oracle Quantile is measured against: the
// ⌈q/100·n⌉-th smallest sample, the same rank convention the sketch uses.
func exactNearestRank(xs []float64, q float64) float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return s[nearestRank(q, len(s))]
}

// checkBound asserts got is within the documented relative error of want.
func checkBound(t *testing.T, label string, got, want float64) {
	t.Helper()
	if want == 0 {
		if got > MinValue*2 {
			t.Errorf("%s: got %v for exact 0", label, got)
		}
		return
	}
	if rel := math.Abs(got-want) / want; rel > RelativeError+1e-12 {
		t.Errorf("%s: got %v, want %v within %.3g relative (off by %.3g)",
			label, got, want, RelativeError, rel)
	}
}

func TestSketchEmpty(t *testing.T) {
	s := NewSketch()
	if s.Len() != 0 || s.Quantile(50) != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Errorf("empty sketch not zero: len=%d q50=%v max=%v min=%v",
			s.Len(), s.Quantile(50), s.Max(), s.Min())
	}
}

func TestSketchSingleSample(t *testing.T) {
	s := NewSketch()
	s.Observe(0.25)
	for _, q := range []float64{0, 50, 100} {
		checkBound(t, "q", s.Quantile(q), 0.25)
	}
	checkBound(t, "max", s.Max(), 0.25)
	checkBound(t, "min", s.Min(), 0.25)
}

// The headline accuracy property: across sample sizes and distributions,
// every quantile the sensors ask for stays within RelativeError of the true
// nearest-rank order statistic.
func TestSketchAccuracyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() float64{
		// Uniform latencies across three decades.
		"uniform": func() float64 { return 1e-3 + rng.Float64() },
		// Lognormal: the canonical latency shape (long right tail).
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64()*1.5 - 4) },
		// Exponential inter-arrival-like values.
		"exponential": func() float64 { return rng.ExpFloat64() * 0.02 },
		// Bimodal: fast path vs slow path, nothing in between.
		"bimodal": func() float64 {
			if rng.Intn(2) == 0 {
				return 0.001 + 0.0001*rng.Float64()
			}
			return 1 + rng.Float64()
		},
	}
	quantiles := []float64{0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100}
	for name, draw := range distributions {
		for _, n := range []int{1, 3, 10, 128, 1000, 5000} {
			s := NewSketch()
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = draw()
				s.Observe(xs[i])
			}
			if s.Len() != n {
				t.Fatalf("%s n=%d: Len=%d", name, n, s.Len())
			}
			for _, q := range quantiles {
				checkBound(t, name, s.Quantile(q), exactNearestRank(xs, q))
			}
			checkBound(t, name+" max", s.Max(), Max(xs))
			checkBound(t, name+" min", s.Min(), Min(xs))
		}
	}
}

// Quantile must be monotone in q even when ranks collide inside one bucket.
func TestSketchQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSketch()
	for i := 0; i < 997; i++ {
		s.Observe(rng.ExpFloat64())
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 100; q += 0.5 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < Quantile(%v) = %v", q, v, q-0.5, prev)
		}
		prev = v
	}
}

func TestSketchQuantilePairMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSketch()
	for i := 0; i < 300; i++ {
		s.Observe(rng.Float64() * 10)
	}
	for _, qs := range [][2]float64{{50, 95}, {0, 100}, {95, 95}, {10, 11}} {
		a, b := s.QuantilePair(qs[0], qs[1])
		if a != s.Quantile(qs[0]) || b != s.Quantile(qs[1]) {
			t.Errorf("QuantilePair(%v, %v) = (%v, %v), want (%v, %v)",
				qs[0], qs[1], a, b, s.Quantile(qs[0]), s.Quantile(qs[1]))
		}
	}
}

// Remove must be the exact inverse of Observe: a sketch that saw a sliding
// window's inserts and evictions equals a sketch that only ever saw the live
// samples.
func TestSketchRemoveTracksWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const windowSize, total = 200, 1500
	windowed, fresh := NewSketch(), NewSketch()
	var live []float64
	for i := 0; i < total; i++ {
		x := math.Exp(rng.NormFloat64())
		live = append(live, x)
		windowed.Observe(x)
		if len(live) > windowSize {
			windowed.Remove(live[0])
			live = live[1:]
		}
	}
	for _, x := range live {
		fresh.Observe(x)
	}
	if windowed.Len() != fresh.Len() {
		t.Fatalf("Len: windowed %d, fresh %d", windowed.Len(), fresh.Len())
	}
	for _, q := range []float64{0, 25, 50, 95, 100} {
		if windowed.Quantile(q) != fresh.Quantile(q) {
			t.Errorf("q%v: windowed %v, fresh %v", q, windowed.Quantile(q), fresh.Quantile(q))
		}
	}
	if windowed.Max() != fresh.Max() || windowed.Min() != fresh.Min() {
		t.Error("Max/Min diverge between windowed and fresh sketches")
	}
}

func TestSketchRemoveUnobservedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s := NewSketch()
	s.Observe(1.0)
	s.Remove(2.0) // different bucket, never observed
}

// Values outside [MinValue, MaxValue) clamp deterministically instead of
// corrupting the histogram.
func TestSketchOutOfRangeClamps(t *testing.T) {
	s := NewSketch()
	for _, x := range []float64{0, -5, 1e-300, math.Inf(1), 1e30, math.NaN()} {
		s.Observe(x)
		s.Remove(x) // must hit the same bucket
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after paired Observe/Remove", s.Len())
	}
	s.Observe(-1)
	if got := s.Quantile(50); got > MinValue*2 {
		t.Errorf("negative sample reported as %v, want ≈0", got)
	}
	s.Observe(1e30)
	if got := s.Quantile(100); got < float64(MaxValue)*0.9 {
		t.Errorf("huge sample reported as %v, want ≈MaxValue", got)
	}
}

func TestSketchReset(t *testing.T) {
	s := NewSketch()
	for i := 0; i < 50; i++ {
		s.Observe(float64(i + 1))
	}
	s.Reset()
	if s.Len() != 0 || s.Quantile(50) != 0 || s.Max() != 0 {
		t.Error("Reset did not clear the sketch")
	}
	s.Observe(2)
	checkBound(t, "post-reset", s.Quantile(50), 2)
}

// Determinism: the sketch is a pure function of the observed multiset, not
// of arrival order.
func TestSketchOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	a, b := NewSketch(), NewSketch()
	for _, x := range xs {
		a.Observe(x)
	}
	perm := rng.Perm(len(xs))
	for _, i := range perm {
		b.Observe(xs[i])
	}
	for q := 0.0; q <= 100; q += 1 {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q%v differs across observation orders", q)
		}
	}
}

func TestWindowPushEvict(t *testing.T) {
	w := NewWindow(2)
	if _, ok := w.PushEvict(1); ok {
		t.Error("evicted from a non-full window")
	}
	if _, ok := w.PushEvict(2); ok {
		t.Error("evicted from a non-full window")
	}
	if ev, ok := w.PushEvict(3); !ok || ev != 1 {
		t.Errorf("PushEvict = (%v, %v), want (1, true)", ev, ok)
	}
	if ev, ok := w.PushEvict(4); !ok || ev != 2 {
		t.Errorf("PushEvict = (%v, %v), want (2, true)", ev, ok)
	}
}

// Observe and Quantile are the per-sample and per-control-period sensor
// costs; both must stay allocation-free.
func TestSketchZeroAlloc(t *testing.T) {
	s := NewSketch()
	for i := 0; i < 1000; i++ {
		s.Observe(float64(i%37) * 0.001)
	}
	if n := testing.AllocsPerRun(100, func() { s.Observe(0.005) }); n != 0 {
		t.Errorf("Observe allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Quantile(95) }); n != 0 {
		t.Errorf("Quantile allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = s.QuantilePair(50, 95) }); n != 0 {
		t.Errorf("QuantilePair allocates %v per op", n)
	}
}

func BenchmarkSketchObserve(b *testing.B) {
	s := NewSketch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(float64(i%1000) * 1e-4)
	}
}

func BenchmarkSketchQuantile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewSketch()
	for i := 0; i < 512; i++ {
		s.Observe(math.Exp(rng.NormFloat64()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.QuantilePair(50, 95)
	}
}

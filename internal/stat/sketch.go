package stat

import "math"

// Sketch is a fixed-memory streaming quantile estimator: a log-bucketed
// histogram in the HDR style. Each octave [2^e, 2^(e+1)) is split into
// 2^sketchMantissaBits linear subbuckets, so a positive sample maps to its
// bucket with two shifts on its IEEE-754 bit pattern and a quantile is a
// single cumulative scan over the occupied bucket range — O(1) per Observe,
// O(buckets) per read, no sorting, no per-sample allocation ever.
//
// Accuracy contract: for samples inside [MinValue, MaxValue), every reported
// quantile (and Max/Min) is the midpoint of the bucket holding the true
// order statistic, so it is within RelativeError of that sample's value.
// Samples at or outside the bounds clamp into the edge buckets and carry no
// error bound (latencies never get there: the range spans picoseconds to
// months when samples are seconds).
//
// Quantile uses nearest-rank semantics (the value of the ⌈q/100·n⌉-th
// smallest sample), unlike Percentiles' linear interpolation: interpolation
// between two adjacent order statistics that land in distant buckets would
// manufacture a value no sample ever had, and the bound above could not be
// stated. Callers that need interpolated small-sample quantiles keep using
// Percentiles; the windowed sensors switch to the sketch only above
// a window-size threshold where the two agree to within the bucket width.
//
// Removal is exact, not approximate: Remove(x) decrements the bucket Observe
// incremented (the mapping is deterministic), which is what lets a sliding
// window maintain true live-sample counts by pairing every eviction with a
// Remove.
//
// The zero Sketch is unusable; construct with NewSketch.
type Sketch struct {
	counts []uint32
	n      int
	// lo/hi bound the occupied bucket range so scans skip the empty tails.
	// They may go stale after Remove (pointing at now-empty buckets); scans
	// stay correct because empty buckets contribute nothing, and the next
	// Observe or Reset re-tightens them.
	lo, hi int
}

const (
	// sketchMantissaBits sets the resolution: 2^6 = 64 subbuckets per
	// octave, giving RelativeError = 1/128.
	sketchMantissaBits = 6
	sketchSubbuckets   = 1 << sketchMantissaBits
	sketchShift        = 52 - sketchMantissaBits // float64 has 52 mantissa bits

	// The covered exponent range: 2^-40 (≈ 0.9 ps when samples are seconds)
	// through 2^24 (≈ 194 days). 64 octaves × 64 subbuckets = 4096 buckets,
	// 16 KiB of uint32 counts per sketch.
	sketchMinExp  = -40
	sketchMaxExp  = 24
	sketchBuckets = (sketchMaxExp - sketchMinExp) * sketchSubbuckets
	sketchBias    = (1023 + sketchMinExp) * sketchSubbuckets

	// MinValue and MaxValue bound the range in which the accuracy contract
	// holds; outside it samples clamp into the edge buckets.
	MinValue = 1.0 / (1 << 40) // 2^sketchMinExp
	MaxValue = 1 << 24         // 2^sketchMaxExp

	// RelativeError is the worst-case relative error of Quantile, Min and
	// Max for in-range samples: reported values are bucket midpoints, and a
	// bucket spans at most 1/64 of its lower bound.
	RelativeError = 1.0 / (2 * sketchSubbuckets)
)

// NewSketch returns an empty sketch. The single allocation here (16 KiB of
// bucket counts) is the sketch's entire memory footprint, forever.
func NewSketch() *Sketch {
	return &Sketch{counts: make([]uint32, sketchBuckets), lo: sketchBuckets}
}

// bucketIndex maps a sample to its bucket. For positive normal floats the
// bit pattern viewed as an integer is monotone in the value, so exponent and
// top mantissa bits — exactly (bits >> sketchShift) — are the log-bucketed
// index directly; no log() call, no branches beyond range clamping.
func bucketIndex(x float64) int {
	if x <= MinValue { // also zero, negatives, subnormals
		return 0
	}
	if x >= MaxValue || math.IsNaN(x) {
		return sketchBuckets - 1
	}
	return int(math.Float64bits(x)>>sketchShift) - sketchBias
}

// bucketMid returns the midpoint of bucket i: for octave e and linear
// subbucket s, (1 + (s+½)/64) · 2^e. Exact float arithmetic, so the value
// reported for a bucket never depends on how its samples arrived.
func bucketMid(i int) float64 {
	combined := i + sketchBias
	e := combined>>sketchMantissaBits - 1023
	sub := combined & (sketchSubbuckets - 1)
	return math.Ldexp(1+(float64(sub)+0.5)/sketchSubbuckets, e)
}

// Observe adds one sample. O(1), never allocates.
func (s *Sketch) Observe(x float64) {
	i := bucketIndex(x)
	s.counts[i]++
	s.n++
	if i < s.lo {
		s.lo = i
	}
	if i > s.hi {
		s.hi = i
	}
}

// Remove subtracts one previously Observed sample — the eviction half of a
// sliding window. Removing a value that was never observed corrupts the
// histogram, so an empty bucket panics instead of wrapping around.
func (s *Sketch) Remove(x float64) {
	i := bucketIndex(x)
	if s.counts[i] == 0 {
		panic("stat: Sketch.Remove of a value that was never observed")
	}
	s.counts[i]--
	s.n--
}

// Len reports the number of live samples (observed minus removed).
func (s *Sketch) Len() int { return s.n }

// Quantile returns the q-th percentile (q in [0,100], clamped) with
// nearest-rank semantics, or 0 when the sketch is empty.
func (s *Sketch) Quantile(q float64) float64 {
	v, _ := s.QuantilePair(q, q)
	return v
}

// QuantilePair returns two quantiles from one cumulative scan (the Snapshot
// fast path: p50 and p95 without walking the buckets twice). qlo must not
// exceed qhi; both clamp to [0,100]. Empty sketches report zeros.
func (s *Sketch) QuantilePair(qlo, qhi float64) (float64, float64) {
	if s.n == 0 {
		return 0, 0
	}
	if qlo > qhi {
		panic("stat: QuantilePair quantiles out of order")
	}
	rlo, rhi := nearestRank(qlo, s.n), nearestRank(qhi, s.n)
	var vlo, vhi float64
	cum, found := 0, 0
	for i := s.lo; i <= s.hi; i++ {
		cum += int(s.counts[i])
		if found == 0 && cum > rlo {
			vlo = bucketMid(i)
			found++
		}
		if found == 1 && cum > rhi {
			vhi = bucketMid(i)
			found++
			break
		}
	}
	return vlo, vhi
}

// nearestRank converts a percentile to a zero-based order-statistic index
// over n samples: the ⌈q/100·n⌉-th smallest, clamped to the valid range.
func nearestRank(q float64, n int) int {
	if q <= 0 || math.IsNaN(q) {
		return 0
	}
	if q >= 100 {
		return n - 1
	}
	r := int(math.Ceil(q/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// Min returns (the bucket midpoint of) the smallest live sample, 0 when
// empty.
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	for i := s.lo; i <= s.hi; i++ {
		if s.counts[i] != 0 {
			return bucketMid(i)
		}
	}
	return 0
}

// Max returns (the bucket midpoint of) the largest live sample, 0 when
// empty.
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	for i := s.hi; i >= s.lo; i-- {
		if s.counts[i] != 0 {
			return bucketMid(i)
		}
	}
	return 0
}

// Reset discards all samples, keeping the bucket memory.
func (s *Sketch) Reset() {
	for i := s.lo; i <= s.hi && i < len(s.counts); i++ {
		s.counts[i] = 0
	}
	s.n = 0
	s.lo, s.hi = sketchBuckets, 0
}

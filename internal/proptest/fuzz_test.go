package proptest

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// FuzzFingerprintMatchesFmt checks the fingerprint's sample encoder against
// the fmt format it replaced, "m%v=%.17g;" of a time.Duration and a float64,
// byte for byte: a difference on any duration (negative, sub-microsecond,
// past an hour) or float (±0, ±Inf, NaN, subnormals) would change every
// recorded chaos fingerprint. The seed corpus holds those edge values.
func FuzzFingerprintMatchesFmt(f *testing.F) {
	f.Add(int64(time.Second), 0.5)
	f.Fuzz(func(t *testing.T, d int64, v float64) {
		s := Sample{T: time.Duration(d), V: v}
		for _, tag := range []byte{'m', 'k'} {
			got := string(appendSample(nil, tag, s))
			if want := fmt.Sprintf("%c%v=%.17g;", tag, s.T, s.V); got != want {
				t.Fatalf("sample (%d ns, bits %#x): encoded %q, fmt prints %q", d, math.Float64bits(v), got, want)
			}
		}
	})
}

// TestFingerprintAllocationsIndependentOfLength hashes a one-sample and a
// hundred-sample report: encoding every sample into one reused buffer makes
// the cost the same in allocations. The slack of a few covers fmt's printer
// pool, which the race detector empties at random.
func TestFingerprintAllocationsIndependentOfLength(t *testing.T) {
	short, long := baseReport(), baseReport()
	short.Metric, short.Knob = short.Metric[:1], short.Knob[:1]
	a := testing.AllocsPerRun(20, short.ComputeFingerprint)
	b := testing.AllocsPerRun(20, long.ComputeFingerprint)
	if b > a+4 {
		t.Errorf("fingerprinting %d samples allocates %.0f objects, %d samples %.0f: allocations grow with the report",
			len(long.Metric)+len(long.Knob), b, len(short.Metric)+len(short.Knob), a)
	}
}

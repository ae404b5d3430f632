package workload

import (
	"math"
	"math/rand"
	"testing"
)

// The zipf sampler must return math/rand.Zipf's keys bit for bit: every
// substrate, artifact and golden digest draws its keys through it. The
// stdlib sampler is the oracle throughout.

// zipfKeySpaces are the key-space sizes the fuzz selector picks from: the
// streams' sizes plus 2^36, just past the ~5e10 keys where the guard band
// outgrows half a key and every draw of a large x falls back, and the
// largest key space a uint64 holds.
var zipfKeySpaces = []uint64{1, 2, 128, 256, 1000, 1 << 20, 1 << 36, 1 << 40, math.MaxUint64}

// newZipfPair returns the sampler and the stdlib's over keys keys, each
// drawing from its own source.
func newZipfPair(a, b rand.Source, keys uint64) (zipf, *rand.Zipf) {
	return newZipf(rand.New(a), keys-1), rand.NewZipf(rand.New(b), 1.1, 1, keys-1)
}

// scriptSource is a rand.Source that returns a script of Int63 values,
// then a splitmix64 stream seeded from the script's first value. A draw the
// sampler rejects keeps drawing, deterministically, so two samplers fed
// equal scripts see equal inputs for as long as they agree.
type scriptSource struct {
	script []int64
	used   int
	state  uint64
}

// feed restarts the source on script.
func (s *scriptSource) feed(script []int64) {
	s.script, s.used, s.state = script, 0, uint64(script[0])
}

func (s *scriptSource) Int63() int64 {
	s.used++
	if s.used <= len(s.script) {
		return s.script[s.used-1]
	}
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

func (s *scriptSource) Seed(seed int64) { s.feed([]int64{seed}) }

// TestZipfStreamsMatchStdlib makes 2^20 draws per key space and seed with
// both samplers, each on its own seeded source, and requires every key to
// match and both sources to end at the same point.
func TestZipfStreamsMatchStdlib(t *testing.T) {
	const draws = 1 << 20
	for _, keys := range []uint64{1, 2, 128, 256, 1000, 1 << 20, 1 << 40} {
		for seed := int64(1); seed <= 3; seed++ {
			a, b := rand.NewSource(seed), rand.NewSource(seed)
			z, ref := newZipfPair(a, b, keys)
			for i := 0; i < draws; i++ {
				if got, want := z.next(), ref.Uint64(); got != want {
					t.Errorf("keys=%d seed=%d: draw %d = %d, stdlib %d", keys, seed, i, got, want)
					break
				}
			}
			if a.Int63() != b.Int63() {
				t.Errorf("keys=%d seed=%d: the samplers consumed different numbers of draws", keys, seed)
			}
		}
	}
}

// TestYCSBKeysMatchStdlib replays NextOp from its parts with the stdlib's
// Zipf: the generator's whole operation stream is what it always was.
func TestYCSBKeysMatchStdlib(t *testing.T) {
	phase := YCSBPhase{Name: "ycsb-a", WriteRatio: 0.5, RequestBytes: 4096, OpsPerSec: 1000}
	y := NewYCSB(7, 1000, phase)
	rng := rand.New(rand.NewSource(7))
	ref := rand.NewZipf(rng, 1.1, 1, 999)
	for i := 0; i < 10000; i++ {
		write := rng.Float64() < phase.WriteRatio
		bytes := int64(float64(phase.RequestBytes) * (0.8 + 0.4*rng.Float64()))
		want := Op{Write: write, Key: ref.Uint64(), Bytes: bytes}
		if got := y.NextOp(); got != want {
			t.Fatalf("op %d = %+v, stdlib-built %+v", i, got, want)
		}
	}
}

// zipfBoundaryInputs returns Int63 values whose Float64 lands near every
// point, for keys k ≤ kmax, where a draw's decision flips: x = k ± 0.5 and
// x = k − s. Around each it takes ±64 ulps of u, and ±8 ulps around the
// guard band's edges, just inside (0.99 of the band) and just outside
// (1.01 of it).
func zipfBoundaryInputs(z *zipf, kmax float64) []int64 {
	var in []int64
	probe := func(x float64, ulps int64) {
		u := (z.h(x) - z.hxm) / z.hx0minusHxm
		if !(u > 0 && u < 1) {
			return
		}
		bits := int64(math.Float64bits(u))
		for j := -ulps; j <= ulps; j++ {
			if uj := math.Float64frombits(uint64(bits + j)); uj >= 0 && uj < 1 {
				in = append(in, int64(uj*(1<<63)))
			}
		}
	}
	point := func(x float64) {
		probe(x, 64)
		band := zipfGuard * (x + 1)
		for _, edge := range []float64{-1.01, -0.99, 0.99, 1.01} {
			probe(x+edge*band, 8)
		}
	}
	for k := 0.0; k <= kmax; k++ {
		point(k - 0.5)
		point(k - z.s)
	}
	point(kmax + 0.5)
	return in
}

// TestZipfBoundaryTable feeds both samplers inputs scripted around every
// decision point. Random streams almost never land within 1e−11 of one,
// so this is the test that sees a mis-sized guard band or constants that
// differ from the stdlib's in the last bits.
func TestZipfBoundaryTable(t *testing.T) {
	for _, keys := range []uint64{1, 2, 128, 1000, 1 << 20, 1 << 40} {
		var a, b scriptSource
		z, ref := newZipfPair(&a, &b, keys)
		inputs := zipfBoundaryInputs(&z, math.Min(5000, float64(keys-1)))
		script := []int64{0}
		bad := 0
		for _, n := range inputs {
			script[0] = n
			a.feed(script)
			b.feed(script)
			got, want := z.next(), ref.Uint64()
			if got != want || a.used != b.used {
				if bad++; bad <= 3 {
					t.Errorf("keys=%d: Int63 %d gives key %d after %d draws, stdlib %d after %d",
						keys, n, got, a.used, want, b.used)
				}
			}
		}
		if bad > 0 {
			t.Errorf("keys=%d: %d of %d boundary inputs differ from the stdlib", keys, bad, len(inputs))
		} else {
			t.Logf("keys=%d: %d boundary inputs match", keys, len(inputs))
		}
	}
}

// TestZipfFallbackIsRare pins the shortcut's reach, which is where the
// speed comes from: no draw over 1000 keys and at most a few per million
// over 2^20 keys compute hinv the stdlib's way.
func TestZipfFallbackIsRare(t *testing.T) {
	for _, tc := range []struct {
		keys uint64
		max  int
	}{{1000, 0}, {1 << 20, 20}} {
		z := newZipf(rand.New(rand.NewSource(11)), tc.keys-1)
		fallbacks := 0
		for i := 0; i < 1<<20; i++ {
			if _, _, ok := z.fastInv(z.hxm + z.r.Float64()*z.hx0minusHxm); !ok {
				fallbacks++
			}
		}
		if fallbacks > tc.max {
			t.Errorf("keys=%d: %d of 2^20 draws fell back, want ≤ %d", tc.keys, fallbacks, tc.max)
		}
	}
}

// FuzzZipfMatchesStdlib: for any key space in zipfKeySpaces and any three
// Int63 values (then a splitmix64 stream, for draws that are rejected),
// three draws of the sampler equal the stdlib's and consume as many
// values. The committed corpus holds boundary-table inputs.
func FuzzZipfMatchesStdlib(f *testing.F) {
	f.Fuzz(func(t *testing.T, sel uint8, n0, n1, n2 int64) {
		keys := zipfKeySpaces[int(sel)%len(zipfKeySpaces)]
		script := []int64{n0 & math.MaxInt64, n1 & math.MaxInt64, n2 & math.MaxInt64}
		var a, b scriptSource
		a.feed(script)
		b.feed(script)
		z, ref := newZipfPair(&a, &b, keys)
		for i := 0; i < 3; i++ {
			if got, want := z.next(), ref.Uint64(); got != want || a.used != b.used {
				t.Fatalf("keys=%d draw %d: key %d after %d values, stdlib %d after %d",
					keys, i, got, a.used, want, b.used)
			}
		}
	})
}

// keySink keeps BenchmarkYCSBNextOp's draws live.
var keySink uint64

// BenchmarkYCSBNextOp draws one YCSB-A operation over 2^20 keys: the
// write/read coin, the size jitter and one zipfian key.
func BenchmarkYCSBNextOp(b *testing.B) {
	y := NewYCSB(1, 1<<20, YCSBPhase{Name: "ycsb-a", WriteRatio: 0.5, RequestBytes: 4096, OpsPerSec: 1000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink += y.NextOp().Key
	}
}

package workload

import (
	"math"
	"math/rand"
)

// zipfV is the sampler's offset v: P(k) ∝ (v + k)^−q. Unlike q it may be a
// constant, because every expression it enters (v + x, x − v, log v) is
// exact or rounds the same at compile time and at run time.
const zipfV = 1.0

// zipfGuard sizes the guard band around each decision point of a draw, as
// a fraction of x + 1. The shortcut's x is within 1e−13·(x+1) of the
// stdlib's, so the band leaves a 100× margin.
const zipfGuard = 1e-11

// zipf draws YCSB keys k ∈ [0, imax] with P(k) ∝ (1 + k)^−1.1. From the same
// r.Float64 draws it returns exactly what rand.NewZipf(r, 1.1, 1,
// imax).Uint64 returns: the same key after the same number of draws, for
// every input.
//
// The algorithm is the stdlib's rejection-inversion (Hörmann and
// Derflinger). A draw maps u = r.Float64() to ur = hxm + u·hx0minusHxm and
// inverts it, x = hinv(ur) = exp(c·log t) − 1 with t = (1−q)·ur and
// c = 1/(1−q). It accepts k = ⌊x + 0.5⌋ if k − x ≤ s, which ~98.5% of draws
// pass, or if ur ≥ h(k + 0.5) − (k + 1)^−q, and otherwise draws again.
//
// The Exp and Log in hinv are most of a draw's cost. At q = 1.1, c
// evaluates to −9.999999999999991, so exp(c·log t) = t^−10 · t^(8.9e−15).
// fastInv computes t^−10 with three squarings, a multiply and a divide. For
// every imax < 2^64 that differs from the stdlib's value by under 1e−13
// relative: the exponent's excess times |ln t| ≤ 0.1·ln(imax + 1.5), plus
// the stdlib's own ulp errors in Exp and Log. The cheap x decides a draw
// only when it lies more than zipfGuard·(x+1) from every point where a
// decision flips: x = k ± 0.5, where ⌊x + 0.5⌋ changes, and x = k − s,
// where the first accept test does. The stdlib's x then lies on the same
// side of each. Otherwise the draw computes hinv(ur) as the stdlib does.
// The second accept test reads only ur and k and keeps the stdlib's
// expression. At 2^20 keys about 1.4e−6 of draws fall back. Past ~5e10
// keys the band is wider than 0.5, so every draw of a large x falls back,
// and the output is still the stdlib's.
type zipf struct {
	r            *rand.Rand
	q            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
	s            float64
}

// newZipf returns the sampler of keys in [0, imax] drawing from r.
//
// The fields below are built from the same expressions as
// math/rand.NewZipf with s = 1.1 and v = 1, which carries this notice:
// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// q must be a float64 variable. Go folds the constant expression 1 − 1.1
// exactly, to −0.1 with a reciprocal of −10, while NewZipf computes
// −0.10000000000000009 and −9.999999999999991 at run time. Those run-time
// values are the ones its draws use. Random streams over up to 2^20 keys
// do not tell the two apart; the boundary table in zipf_test.go does.
func newZipf(r *rand.Rand, imax uint64) zipf {
	z := zipf{r: r, q: 1.1}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(float64(imax) + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(zipfV)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(zipfV+1.0)))
	return z
}

func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(zipfV+x)) * z.oneminusQinv
}

func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - zipfV
}

// next draws one key.
func (z *zipf) next() uint64 {
	for {
		r := z.r.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		k, accept, ok := z.fastInv(ur)
		if !ok {
			x := z.hinv(ur)
			k = math.Floor(x + 0.5)
			accept = k-x <= z.s
		}
		if accept || ur >= z.h(k+0.5)-math.Exp(-math.Log(k+zipfV)*z.q) {
			return uint64(k)
		}
	}
}

// fastInv inverts ur without Exp or Log. ok reports whether its x lies
// outside the guard band of every decision point; if so, k is ⌊x + 0.5⌋
// and accept is the first accept test k − x ≤ s, both as hinv(ur) would
// give them.
func (z *zipf) fastInv(ur float64) (k float64, accept, ok bool) {
	t := z.oneminusQ * ur
	t2 := t * t
	t4 := t2 * t2
	y := 1 / (t4 * t4 * t2) // t^−10 ≈ x + 1
	x := y - 1
	k = math.Floor(x + 0.5)
	band := zipfGuard * y
	f := x + 0.5 - k // x's place between k − 0.5 and k + 0.5
	g := k - x - z.s // above zero iff the first accept test fails
	return k, g < 0, band < f && f < 1-band && band < math.Abs(g)
}

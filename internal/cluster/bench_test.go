package cluster

import (
	"math/rand"
	"testing"
)

// BenchmarkRouterRoute measures one routing decision on the key-affinity
// policy (the most work per decision: one rendezvous mix per member) over a
// 16-member fleet. Every op routes a new key, so every op misses the
// rendezvous-order memo: this is the miss path. The number in
// BENCH_engine.json is re-measured by internal/benchgate, which fails CI if
// this path ever allocates.
func BenchmarkRouterRoute(b *testing.B) {
	fakes := newFakes(16)
	r := routerOver(KeyAffinity, fakes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RouteExcluding(Request{Key: uint64(i), Cost: 1}, TriedSet{})
	}
}

// BenchmarkFleetRouteWide is the wide-router gate: one key-affinity decision
// over a 256-member fleet with a scattered mix of dead (every 5th) and tried
// (every 7th) members, so the eligible-set word math, the dead cache, and
// the salted rendezvous scan are all on the measured path. Every op routes a
// new key, so every op misses the memo (the miss path). Benchgate-gated at 0
// allocs/op via BENCH_engine.json.
func BenchmarkFleetRouteWide(b *testing.B) {
	fakes := newFakes(256)
	for i := 0; i < 256; i += 5 {
		fakes[i].alive = false
	}
	r := routerOver(KeyAffinity, fakes)
	var tried TriedSet
	for i := 0; i < 256; i += 7 {
		tried.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RouteExcluding(Request{Key: uint64(i), Cost: 1}, tried)
	}
}

// boundedMember is a fleet member with a bounded backlog: offers fill it up
// to bound, drain empties it one request at a time, and both report to the
// fleet's running load total.
type boundedMember struct {
	id, load, bound int
	total           *int64
}

func (m *boundedMember) ID() int     { return m.id }
func (m *boundedMember) Alive() bool { return true }

func (m *boundedMember) ReportLoad(total *int64) {
	*total += int64(m.load)
	m.total = total
}

func (m *boundedMember) offer(int) bool {
	if m.load >= m.bound {
		return false
	}
	m.load++
	*m.total++
	return true
}

func (m *boundedMember) drain() {
	if m.load > 0 {
		m.load--
		*m.total--
	}
}

// BenchmarkFleetDispatchWide measures one Fleet.Dispatch over 256 members
// of backlog bound 8 under key affinity: zipfian keys (s=1.01 over 65536
// keys), so hot keys repeat and their full owners spill, and an admission
// bound of 400 that throttles while the fleet is that loaded. Each op also
// drains two members round-robin. The mix is fleet-rpc's in shape: ~1.8
// offers per dispatch, ~2% throttled. The admission gate, the memoized
// rendezvous order and the retry loop are all on the measured path.
// Benchgate-gated at 0 allocs/op via BENCH_engine.json.
func BenchmarkFleetDispatchWide(b *testing.B) {
	w := newWideDispatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.step(i)
	}
}

// wideDispatch is BenchmarkFleetDispatchWide's workload, shared with the
// test that pins its path mix.
type wideDispatch struct {
	f    *Fleet[int]
	ms   []*boundedMember
	keys []uint64
}

func newWideDispatch() *wideDispatch {
	w := &wideDispatch{f: NewFleet[int](KeyAffinity), ms: make([]*boundedMember, 256), keys: make([]uint64, 1<<16)}
	for i := range w.ms {
		m := &boundedMember{id: i, bound: 8}
		w.ms[i] = m
		w.f.Add(m, 1, m.offer)
	}
	w.f.SetMaxInFlight(400)
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.01, 1, 1<<16-1)
	for i := range w.keys {
		w.keys[i] = zipf.Uint64()
	}
	return w
}

// step is op i: drain two members round-robin, then dispatch the op's key.
func (w *wideDispatch) step(i int) {
	w.ms[(2*i)&255].drain()
	w.ms[(2*i+1)&255].drain()
	w.f.Dispatch(Request{Key: w.keys[i&(1<<16-1)], Cost: 1}, i)
}

// BenchmarkFleetDispatchRefusedByAll measures a placement that every member
// refuses: 256 members of backlog bound 0 under key affinity, a new key
// every op. Each Dispatch makes 256 routing attempts: the first memoRanks
// fill the key's memo slot, and the rest walk the key's deep rendezvous
// order, built once per key. Benchgate-gated at 0 allocs/op via
// BENCH_engine.json.
func BenchmarkFleetDispatchRefusedByAll(b *testing.B) {
	f := NewFleet[int](KeyAffinity)
	for i := 0; i < 256; i++ {
		m := &boundedMember{id: i}
		f.Add(m, 1, m.offer)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Dispatch(Request{Key: uint64(i), Cost: 1}, i)
	}
}

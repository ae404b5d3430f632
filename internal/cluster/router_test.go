package cluster

import (
	"math/rand"
	"testing"
)

// fake is a minimal Instance for router and fleet tests. A fake in a fleet
// changes its load through setLoad, which reports the change into the
// fleet's running total like a substrate does.
type fake struct {
	id    int
	alive bool
	load  float64
	total *int64
}

func (f *fake) ID() int     { return f.id }
func (f *fake) Alive() bool { return f.alive }

func (f *fake) ReportLoad(total *int64) {
	*total += int64(f.load)
	f.total = total
}

func (f *fake) setLoad(v float64) {
	*f.total += int64(v) - int64(f.load)
	f.load = v
}

func newFakes(n int) []*fake {
	out := make([]*fake, n)
	for i := range out {
		out[i] = &fake{id: i, alive: true}
	}
	return out
}

func routerOver(policy PolicyKind, fakes []*fake) *Router {
	r := NewRouter(policy)
	for _, f := range fakes {
		r.Add(f)
	}
	return r
}

func TestKeyAffinityStableAndMinimal(t *testing.T) {
	fakes := newFakes(4)
	r := routerOver(KeyAffinity, fakes)
	const keys = 512
	owner := make([]int, keys)
	for k := 0; k < keys; k++ {
		owner[k] = r.Route(Request{Key: uint64(k)})
		if again := r.Route(Request{Key: uint64(k)}); again != owner[k] {
			t.Fatalf("key %d not stable: %d then %d", k, owner[k], again)
		}
	}
	// Kill one member: only its keys may move, and they must all move.
	victim := owner[0]
	fakes[victim].alive = false
	for k := 0; k < keys; k++ {
		got := r.Route(Request{Key: uint64(k)})
		if owner[k] != victim && got != owner[k] {
			t.Fatalf("key %d moved from %d to %d though its owner survived", k, owner[k], got)
		}
		if owner[k] == victim && got == victim {
			t.Fatalf("key %d still routed to dead member %d", k, victim)
		}
	}
	// Resurrect: every key returns to its original owner.
	fakes[victim].alive = true
	for k := 0; k < keys; k++ {
		if got := r.Route(Request{Key: uint64(k)}); got != owner[k] {
			t.Fatalf("key %d did not return to %d after restart, got %d", k, owner[k], got)
		}
	}
}

// TestAffinityRefusedByAllThenPlacedAgain spills one key past its memo: a
// placement every member refuses must visit the key's whole rendezvous
// order exactly once, and a later placement with a fresh tried set must
// restart the walk at the top (the cursor-reset path) rather than resume
// where the refused placement stopped. A member added afterwards must
// appear in the next walk: the order is rebuilt for the new membership.
// Every decision is checked against the reference router.
func TestAffinityRefusedByAllThenPlacedAgain(t *testing.T) {
	fakes := newFakes(maxMembers)
	r, ref := NewRouter(KeyAffinity), newRefRouter(KeyAffinity)
	for _, f := range fakes[:maxMembers-1] {
		r.Add(f)
		ref.add(f)
	}
	req := Request{Key: 0xdecaf}
	order := ref.order(req.Key)
	place := func(step, refusals int) {
		t.Helper()
		var tried TriedSet
		for k := 0; k <= refusals && k < len(order); k++ {
			got := routeBoth(t, step, r, ref, req, tried)
			if got != order[k] {
				t.Fatalf("placement %d, attempt %d: routed to %d, want place %d of the order (%d)", step, k, got, k, order[k])
			}
			tried.Set(got)
		}
		if refusals >= len(order) {
			if got := r.RouteExcluding(req, tried); got != -1 {
				t.Fatalf("placement %d: every member tried, still routed to %d", step, got)
			}
		}
	}
	place(0, len(order)) // refused by all: the memo, then the deep order to its end
	if r.deep.key != req.Key || r.deep.cursor != len(order)-1 {
		t.Fatalf("deep order holds key %#x at cursor %d after a refused-by-all placement, want %#x at %d",
			r.deep.key, r.deep.cursor, req.Key, len(order)-1)
	}
	place(1, memoRanks+2) // fresh tried set: the deep walk restarts at the top
	if r.deep.cursor != memoRanks+2 {
		t.Fatalf("deep cursor %d after a placement accepted at place %d", r.deep.cursor, memoRanks+2)
	}
	// A dead member above the cursor is skipped; revived, it is a candidate
	// above the cursor again, so the walk restarts and finds it.
	fakes[order[memoRanks]].alive = false
	var tried TriedSet
	for _, i := range order[:memoRanks] {
		tried.Set(i)
	}
	if got := routeBoth(t, 2, r, ref, req, tried); got != order[memoRanks+1] {
		t.Fatalf("routed to %d with place %d dead, want place %d (%d)", got, memoRanks, memoRanks+1, order[memoRanks+1])
	}
	fakes[order[memoRanks]].alive = true
	if got := routeBoth(t, 3, r, ref, req, tried); got != order[memoRanks] {
		t.Fatalf("routed to %d after place %d revived, want %d", got, memoRanks, order[memoRanks])
	}
	// Growing the fleet invalidates the order.
	r.Add(fakes[maxMembers-1])
	ref.add(fakes[maxMembers-1])
	order = ref.order(req.Key)
	place(4, len(order))
}

// TestDeepOrderBuildMatchesReference compares deep orders built directly
// with the reference's full rendezvous order: random keys at widths from 1
// to 256, with unique ids and with repeating ids (equal salts, so hashes
// tie and the lower index must rank first), and keys searched for so that
// at least three members share one top-byte bucket, where the insertion
// pass alone decides the order.
func TestDeepOrderBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 64, 255, 256} {
		for _, idMod := range []int{0, 3} {
			r, ref := NewRouter(KeyAffinity), newRefRouter(KeyAffinity)
			for i := 0; i < n; i++ {
				m := &fake{id: i, alive: true}
				if idMod > 0 {
					m.id = i % idMod
				}
				r.Add(m)
				ref.add(m)
			}
			for k := 0; k < 64; k++ {
				checkDeepBuild(t, r, ref, rng.Uint64())
			}
			if idMod > 0 || n < 7 {
				continue // tied ids share buckets under every key
			}
			for key, found := uint64(0), 0; found < 16; key++ {
				var bucket [256]int
				most := 0
				for _, salt := range r.salts {
					b := mix64(key^salt) >> 56
					bucket[b]++
					most = max(most, bucket[b])
				}
				if most >= 3 {
					checkDeepBuild(t, r, ref, key)
					found++
				}
			}
		}
	}
}

// checkDeepBuild builds key's deep order on r and requires it to equal the
// reference's full rendezvous order.
func checkDeepBuild(t *testing.T, r *Router, ref *refRouter, key uint64) {
	t.Helper()
	r.deep.build(key, r.gen, r.salts)
	for k, i := range ref.order(key) {
		if got := r.deep.place[k].idx; got != i {
			t.Fatalf("%d members, key %#x: deep order has member %d at place %d, reference %d",
				len(ref.members), key, got, k, i)
		}
	}
}

func TestKeyAffinitySpreadsKeys(t *testing.T) {
	fakes := newFakes(4)
	r := routerOver(KeyAffinity, fakes)
	counts := make([]int, 4)
	for k := 0; k < 4096; k++ {
		counts[r.Route(Request{Key: uint64(k)})]++
	}
	for i, c := range counts {
		if c < 512 || c > 1536 {
			t.Fatalf("member %d owns %d of 4096 keys — rendezvous spread badly skewed: %v", i, c, counts)
		}
	}
}

// triedOf builds a TriedSet from explicit member indices.
func triedOf(indices ...int) TriedSet {
	var t TriedSet
	for _, i := range indices {
		t.Set(i)
	}
	return t
}

func TestRouteExcludingHonorsMask(t *testing.T) {
	fakes := newFakes(3)
	r, ref := routerOver(KeyAffinity, fakes), newRefRouter(KeyAffinity)
	for _, f := range fakes {
		ref.add(f)
	}
	req := Request{Key: 7}
	order := ref.order(req.Key)
	if got := r.RouteExcluding(req, triedOf(order[0])); got != order[1] {
		t.Fatalf("got %d, want %d with the key's owner %d masked", got, order[1], order[0])
	}
	if got := r.RouteExcluding(req, triedOf(order[0], order[1])); got != order[2] {
		t.Fatalf("got %d, want %d with its first two places masked", got, order[2])
	}
	if got := r.RouteExcluding(req, triedOf(0, 1, 2)); got != -1 {
		t.Fatalf("got %d, want -1 with every member masked", got)
	}
}

// TestRouteExcludingAtWordBoundaries pins correct exclusion at widths 63, 64,
// 65 and 256: the regression the single-word tried-mask could not express —
// a 65th member's 1<<64 mask bit wrapped into member 0's, so excluding
// member 64 silently excluded member 0 instead.
func TestRouteExcludingAtWordBoundaries(t *testing.T) {
	for _, width := range []int{63, 64, 65, 256} {
		fakes := newFakes(width)
		r := routerOver(KeyAffinity, fakes)
		for excl := 0; excl < width; excl++ {
			got := r.RouteExcluding(Request{}, triedOf(excl))
			if got == excl {
				t.Fatalf("width %d: excluded member %d was routed to anyway", width, excl)
			}
			if got < 0 || got >= width {
				t.Fatalf("width %d: routed to %d with member %d excluded", width, got, excl)
			}
		}
		// Excluding everyone except one member must pick exactly that member,
		// wherever it sits relative to a word boundary.
		for _, keep := range []int{0, width / 2, width - 1} {
			var tried TriedSet
			for i := 0; i < width; i++ {
				if i != keep {
					tried.Set(i)
				}
			}
			for _, p := range []PolicyKind{KeyAffinity, PrefixAffinity} {
				if got := routerOver(p, fakes).RouteExcluding(Request{Key: 7, Prefix: 9}, tried); got != keep {
					t.Fatalf("width %d, %s: got %d, want sole unmasked member %d", width, p, got, keep)
				}
			}
		}
		// Excluding everyone routes nowhere.
		var all TriedSet
		for i := 0; i < width; i++ {
			all.Set(i)
		}
		if got := r.RouteExcluding(Request{}, all); got != -1 {
			t.Fatalf("width %d: got %d with every member excluded, want -1", width, got)
		}
	}
}

// TestRendezvousSaltPinned pins the Add-time salt precomputation to the
// original per-route formula mix64(key ^ mix64(id+gamma)): the optimization
// must not move a single key, or every affinity artifact's bytes would move
// with it.
func TestRendezvousSaltPinned(t *testing.T) {
	fakes := newFakes(256)
	r := routerOver(KeyAffinity, fakes)
	for k := uint64(0); k < 4096; k += 17 {
		want, wantHash := -1, uint64(0)
		for i := range fakes {
			if h := rendezvous(k, fakes[i].id); want < 0 || h > wantHash {
				want, wantHash = i, h
			}
		}
		if got := r.Route(Request{Key: k}); got != want {
			t.Fatalf("key %d: salted routing picked %d, reference formula picks %d", k, got, want)
		}
	}
}

// TestPrefixAffinityRoutesOnPrefix pins the prefix policy's contract:
// requests with equal Prefix co-locate regardless of Key, and the placement
// is the rendezvous choice over Prefix.
func TestPrefixAffinityRoutesOnPrefix(t *testing.T) {
	fakes := newFakes(8)
	r := routerOver(PrefixAffinity, fakes)
	for prefix := uint64(0); prefix < 64; prefix++ {
		first := r.Route(Request{Key: prefix * 1000, Prefix: prefix})
		for key := uint64(0); key < 16; key++ {
			if got := r.Route(Request{Key: key, Prefix: prefix}); got != first {
				t.Fatalf("prefix %d: key %d routed to %d, want %d (prefix decides, not key)", prefix, key, got, first)
			}
		}
		want, wantHash := -1, uint64(0)
		for i := range fakes {
			if h := rendezvous(prefix, fakes[i].id); want < 0 || h > wantHash {
				want, wantHash = i, h
			}
		}
		if first != want {
			t.Fatalf("prefix %d: routed to %d, want rendezvous owner %d", prefix, first, want)
		}
	}
}

// TestAffinitySpreadWideFleet is the wide-fleet distribution property: 256
// members, 64k keys (and 4k prefixes) — every member owns some keys and no
// member owns more than 3x its fair share. The bound is loose by design:
// rendezvous hashing's max/mean imbalance over k keys and n members
// concentrates near 1 + O(sqrt(n ln n / k)), well under 3x here; what the
// test guards is systematic skew (a broken mix, a salt collision), not
// statistical noise.
func TestAffinitySpreadWideFleet(t *testing.T) {
	const width = 256
	fakes := newFakes(width)
	for _, tc := range []struct {
		policy PolicyKind
		keys   int
	}{
		{KeyAffinity, 65536},
		{PrefixAffinity, 4096},
	} {
		r := routerOver(tc.policy, fakes)
		counts := make([]int, width)
		for k := 0; k < tc.keys; k++ {
			var req Request
			if tc.policy == KeyAffinity {
				req.Key = uint64(k)
			} else {
				req.Prefix = uint64(k)
			}
			got := r.Route(req)
			if got < 0 || got >= width {
				t.Fatalf("%s: key %d routed to %d", tc.policy, k, got)
			}
			counts[got]++
		}
		fair := tc.keys / width
		for i, c := range counts {
			if c == 0 {
				t.Errorf("%s: member %d owns no keys of %d — rendezvous spread collapsed", tc.policy, i, tc.keys)
			}
			if c > 3*fair {
				t.Errorf("%s: member %d owns %d of %d keys (fair share %d) — systematic skew", tc.policy, i, c, tc.keys, fair)
			}
		}
	}
}

// TestWideRouterSkipsDeadByBitset kills a scattered third of a 256-member
// fleet and checks both policies route only to live members, then restarts
// them and checks they are eligible again on the next decision.
func TestWideRouterSkipsDeadByBitset(t *testing.T) {
	const width = 256
	for _, p := range []PolicyKind{KeyAffinity, PrefixAffinity} {
		fakes := newFakes(width)
		r := routerOver(p, fakes)
		for i := 0; i < width; i += 3 {
			fakes[i].alive = false
		}
		for k := 0; k < 1024; k++ {
			got := r.Route(Request{Key: uint64(k), Prefix: uint64(k >> 4)})
			if got < 0 {
				t.Fatalf("%s: no member for key %d with two thirds alive", p, k)
			}
			if got%3 == 0 {
				t.Fatalf("%s: key %d routed to dead member %d", p, k, got)
			}
		}
		for i := 0; i < width; i += 3 {
			fakes[i].alive = true
		}
		revived := false
		for k := 0; k < 1024 && !revived; k++ {
			revived = r.Route(Request{Key: uint64(k), Prefix: uint64(k >> 4)})%3 == 0
		}
		if !revived {
			t.Errorf("%s: no restarted member was routed to across 1024 decisions", p)
		}
	}
}

func TestRouteEmptyAndAllDead(t *testing.T) {
	r := NewRouter(KeyAffinity)
	if got := r.Route(Request{}); got != -1 {
		t.Fatalf("empty router routed to %d", got)
	}
	fakes := newFakes(2)
	fakes[0].alive = false
	fakes[1].alive = false
	for _, p := range []PolicyKind{KeyAffinity, PrefixAffinity} {
		if got := routerOver(p, fakes).Route(Request{Key: 7}); got != -1 {
			t.Fatalf("%s routed to %d with every member dead", p, got)
		}
	}
}

func TestPolicyKindStrings(t *testing.T) {
	want := map[PolicyKind]string{
		KeyAffinity:    "key-affinity",
		PrefixAffinity: "prefix-affinity",
		PolicyKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestRouteZeroAllocs pins the routing hot path at zero allocations per
// decision for both policies — the contract BENCH_engine.json gates — at a
// narrow and at the widest width.
func TestRouteZeroAllocs(t *testing.T) {
	for _, width := range []int{16, 256} {
		fakes := newFakes(width)
		for _, p := range []PolicyKind{KeyAffinity, PrefixAffinity} {
			r := routerOver(p, fakes)
			key := uint64(0)
			got := testing.AllocsPerRun(1000, func() {
				key++
				r.RouteExcluding(Request{Key: key, Prefix: key >> 4}, TriedSet{})
			})
			if got != 0 {
				t.Errorf("width %d, %s: %.1f allocs per route, want 0", width, p, got)
			}
		}
	}
}

// TestFleetDispatchWidePathMix pins the router's path mix on
// BenchmarkFleetDispatchWide's workload: how often it builds a deep
// rendezvous order, and how deep its memo slots have grown at the end. The
// router fills a key's slot one place per extension and goes deep only once
// all memoRanks places are refused, so a change to that mix (a slot filled
// more eagerly sends spilling hot keys deep sooner) fails here even where
// the benchmark's noise would hide it.
func TestFleetDispatchWidePathMix(t *testing.T) {
	const ops, wantBuilds = 1 << 18, 153
	wantDepths := [memoRanks + 1]int{0, 10171, 991, 112, 16, 1, 1, 0, 2}
	w := newWideDispatch()
	for i := 0; i < ops; i++ {
		w.step(i)
	}
	r := w.f.router
	if got := r.deep.builds; got != wantBuilds {
		t.Errorf("%d dispatches built %d deep orders, want %d", ops, got, wantBuilds)
	}
	var depths [memoRanks + 1]int // memo slots holding n places, by n
	for _, s := range r.memo {
		if s.gen == r.gen {
			depths[s.n]++
		}
	}
	if depths != wantDepths {
		t.Errorf("%d dispatches left memo slots of depths 0..%d: %v, want %v", ops, memoRanks, depths, wantDepths)
	}
}

package cluster

import "testing"

// FuzzRouteExcluding drives RouteExcluding with fuzzer-chosen (width,
// tried-set, alive-set, key, policy) tuples and checks the routing contract
// that both policies must honor at every width up to maxMembers:
//
//   - a returned member is in range, alive, and not in the tried set;
//   - -1 is returned exactly when no member is alive-and-untried;
//   - the decision is deterministic: re-routing the same request on a fresh
//     identically-configured router picks the same member.
func FuzzRouteExcluding(f *testing.F) {
	f.Add(uint16(4), uint64(1), uint64(0), uint64(0), uint64(0), ^uint64(0), uint64(0), uint64(0), uint64(0), uint64(7), byte(0))
	f.Add(uint16(65), uint64(1)<<63, uint64(1), uint64(0), uint64(0), ^uint64(0), ^uint64(0), uint64(0), uint64(0), uint64(99), byte(1))
	f.Add(uint16(256), uint64(0), uint64(0), uint64(0), uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint64(1), byte(1))
	f.Fuzz(func(t *testing.T, width uint16,
		t0, t1, t2, t3 uint64, // tried words
		a0, a1, a2, a3 uint64, // alive words
		key uint64, policyByte byte) {

		n := int(width%maxMembers) + 1
		tried := TriedSet{t0, t1, t2, t3}
		alive := TriedSet{a0, a1, a2, a3}
		policy := PolicyKind(policyByte % 2)

		build := func() ([]*fake, *Router) {
			fakes := make([]*fake, n)
			r := NewRouter(policy)
			for i := range fakes {
				fakes[i] = &fake{id: i, alive: alive.Has(i)}
				r.Add(fakes[i])
			}
			return fakes, r
		}
		fakes, r := build()
		req := Request{Key: key, Prefix: key >> 7}
		got := r.RouteExcluding(req, tried)

		eligible := 0
		for i := 0; i < n; i++ {
			if alive.Has(i) && !tried.Has(i) {
				eligible++
			}
		}
		if got == -1 {
			if eligible != 0 {
				t.Fatalf("width %d policy %s: routed nowhere with %d eligible members", n, policy, eligible)
			}
			return
		}
		if got < 0 || got >= n {
			t.Fatalf("width %d policy %s: routed to out-of-range member %d", n, policy, got)
		}
		if tried.Has(got) {
			t.Fatalf("width %d policy %s: routed to tried member %d", n, policy, got)
		}
		if !fakes[got].alive {
			t.Fatalf("width %d policy %s: routed to dead member %d", n, policy, got)
		}

		_, r2 := build()
		if again := r2.RouteExcluding(req, tried); again != got {
			t.Fatalf("width %d policy %s: fresh identical router picked %d, first picked %d", n, policy, again, got)
		}
	})
}

// FuzzRouterDifferential runs one long-lived Router and refRouter in lockstep
// through a fuzzer-chosen sequence of steps and requires every decision to
// match. Unlike FuzzRouteExcluding, the router lives across steps, so the
// memo sees hits, slot collisions, evictions, rank extensions and membership
// growth, and placements that spill past the memo walk, resume and restart
// the deep order; after every route the key's memoized order must also be a
// prefix of the reference's full rendezvous order, and the deep order must
// equal the full order of its key.
//
// The input is a four-byte header — policy (mod 2), initial width (1–256),
// member id modulus (0 keeps ids unique; otherwise ids repeat, so rendezvous
// hashes tie), key pool — then two-byte steps (code mod 8, argument):
//
//	0, 1, 7  route a pool key with nothing tried
//	2        place a pool key the way Fleet.place does: re-route with every
//	         refusing member added to the tried set until one accepts
//	3        route a pool key with an arbitrary tried set
//	4        kill a member
//	5        revive a member
//	6        add a member
func FuzzRouterDifferential(f *testing.F) {
	for _, s := range routerDiffSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runRouterDifferential(t, data)
	})
}

// routerDiffSeeds cover both policies at narrow, middling and full widths,
// with colliding pool keys, duplicate ids, kills, revivals, spills and
// membership growth after keys were memoized.
var routerDiffSeeds = [][]byte{
	{0, 255, 0, 7, 0, 1, 1, 2, 2, 3, 4, 1, 0, 1, 2, 9, 5, 1, 0, 1, 6, 0, 0, 1, 3, 0x55, 2, 4},
	{1, 15, 3, 12, 0, 0, 2, 0xf0, 6, 1, 0, 0, 4, 0, 2, 0xff, 6, 2, 0, 1, 3, 0x11},
	{0, 0, 0, 3, 0, 0, 6, 0, 0, 0, 6, 1, 0, 1, 6, 2, 0, 2, 2, 0xff},
	{1, 200, 0, 5, 0, 0, 4, 3, 4, 9, 0, 1, 3, 0x77, 7, 40, 0, 2, 5, 3, 0, 3},
	{2, 100, 0, 5, 0, 0, 4, 10, 7, 9, 3, 0x21, 2, 0x38, 5, 10, 0, 0},
	{0, 70, 0, 2, 0, 0, 0, 1, 4, 1, 0, 0, 2, 0xf3, 5, 1, 0, 1},
	{0, 127, 2, 15, 2, 0xff, 2, 0xfe, 4, 0, 4, 1, 2, 0xfd, 5, 0, 3, 0x42, 0, 5},
}

// routerDiffPool returns the step keys for a header byte: up to 16 keys,
// half of them built to share one memo slot (multiples of the inverse of
// the slot hash's multiplier land on adjacent products, so they collide
// unless a carry crosses the slot boundary).
func routerDiffPool(b byte) []uint64 {
	inv := uint64(goldenGamma) // Newton's iteration for the inverse mod 2^64
	for i := 0; i < 6; i++ {
		inv *= 2 - goldenGamma*inv
	}
	base := mix64(uint64(b))
	pool := make([]uint64, int(b%16)+1)
	for k := range pool {
		if k%2 == 0 {
			pool[k] = base + uint64(k/2)*inv
		} else {
			pool[k] = mix64(base + uint64(k))
		}
	}
	return pool
}

func runRouterDifferential(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 4 {
		return
	}
	policy := PolicyKind(data[0] % 2)
	idMod := int(data[2])
	pool := routerDiffPool(data[3])
	r, ref := NewRouter(policy), newRefRouter(policy)
	var fakes []*fake
	add := func() {
		i := len(fakes)
		id := i
		if idMod > 0 {
			id = i % idMod
		}
		m := &fake{id: id, alive: true}
		fakes = append(fakes, m)
		r.Add(m)
		ref.add(m)
	}
	for i := 0; i <= int(data[1]); i++ {
		add()
	}
	for step, ops := 0, data[4:]; step+1 < len(ops); step += 2 {
		code, arg := ops[step]%8, ops[step+1]
		key := pool[int(arg)%len(pool)]
		req := Request{Key: key, Prefix: key ^ 0x5bd1e995}
		switch code {
		case 0, 1, 7:
			routeBoth(t, step/2, r, ref, req, TriedSet{})
		case 2:
			var tried TriedSet
			for attempt := 0; attempt < len(fakes); attempt++ {
				i := routeBoth(t, step/2, r, ref, req, tried)
				if i < 0 || mix64(uint64(arg)<<8|uint64(attempt))%3 == 0 {
					break // nowhere left to route, or the member accepted
				}
				tried.Set(i)
			}
		case 3:
			var tried TriedSet
			for w := range tried {
				tried[w] = mix64(uint64(arg)+uint64(w)) & mix64(uint64(arg)*3+uint64(w))
			}
			routeBoth(t, step/2, r, ref, req, tried)
		case 4:
			fakes[int(arg)%len(fakes)].alive = false
		case 5:
			fakes[int(arg)%len(fakes)].alive = true
		case 6:
			if len(fakes) < maxMembers {
				add()
			}
		}
	}
}

// routeBoth routes req on both routers and fails on any disagreement: the
// decision, the all-members-liveness decision, the key's memoized order and
// the deep order.
func routeBoth(t *testing.T, step int, r *Router, ref *refRouter, req Request, tried TriedSet) int {
	t.Helper()
	triedMap := map[int]bool{}
	for i := range ref.members {
		if tried.Has(i) {
			triedMap[i] = true
		}
	}
	byAlive := ref.routeByAlive(req, triedMap)
	want := ref.route(req, triedMap)
	got := r.RouteExcluding(req, tried)
	if got != want {
		t.Fatalf("step %d, %s over %d members: router picked %d, reference %d (req %+v, tried %v)",
			step, r.policy, len(ref.members), got, want, req, tried)
	}
	if byAlive != want {
		t.Fatalf("step %d, %s: reference picked %d, but the best live untried member is %d", step, r.policy, want, byAlive)
	}
	key := req.Key
	if r.policy == PrefixAffinity {
		key = req.Prefix
	}
	s := r.memo[memoIndex(key)]
	if s.key == key && s.gen == r.gen {
		order := ref.order(key)
		for k, i := range s.rank[:s.n] {
			if int(i) != order[k] {
				t.Fatalf("step %d, %s: memoized order of key %#x is %v, reference order starts %v",
					step, r.policy, key, s.rank[:s.n], order[:s.n])
			}
		}
	}
	checkDeepOrder(t, step, r, ref)
	return got
}

// checkDeepOrder requires a built deep order to be its key's full
// rendezvous order, with prefix holding exactly the members above the
// cursor.
func checkDeepOrder(t *testing.T, step int, r *Router, ref *refRouter) {
	t.Helper()
	d := r.deep
	if d.gen != r.gen {
		return
	}
	var above TriedSet
	for k, i := range ref.order(d.key) {
		if d.place[k].idx != i {
			t.Fatalf("step %d, %s: deep order of key %#x has member %d at place %d, reference %d",
				step, r.policy, d.key, d.place[k].idx, k, i)
		}
		if k < d.cursor {
			above.Set(i)
		}
	}
	if above != d.prefix {
		t.Fatalf("step %d, %s: deep prefix %v, want the members above cursor %d: %v",
			step, r.policy, d.prefix, d.cursor, above)
	}
}

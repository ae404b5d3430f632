package cluster

import "math/bits"

// PolicyKind selects the routing policy a Router applies.
type PolicyKind int

const (
	// KeyAffinity picks by rendezvous (highest-random-weight) hashing over
	// Key and member ID: the same key always lands on the same live member,
	// and when a member dies only its keys move.
	KeyAffinity PolicyKind = iota
	// PrefixAffinity picks by rendezvous hashing over the request's Prefix
	// key instead of its full Key: requests sharing a prompt prefix (a chat
	// template, a system prompt, a tenant) land on the same member, so an
	// llmserve fleet reuses the KV state the prefix already resides in.
	PrefixAffinity
)

// String returns the policy's stable name (used in cache keys and renders).
func (k PolicyKind) String() string {
	switch k {
	case KeyAffinity:
		return "key-affinity"
	case PrefixAffinity:
		return "prefix-affinity"
	}
	return "unknown"
}

// triedWords sizes the retry bitset: maxMembers bits in fixed-size words, so
// a TriedSet lives on the stack and a route decision allocates nothing.
const triedWords = maxMembers / 64

// TriedSet is the fixed-size member bitset the fleet's retry loop threads
// through RouteExcluding: value-typed, one bit per member, no allocation.
type TriedSet [triedWords]uint64

// Set marks member i as tried.
func (t *TriedSet) Set(i int) { t[i>>6] |= 1 << uint(i&63) }

// Has reports whether member i is marked.
func (t *TriedSet) Has(i int) bool { return t[i>>6]&(1<<uint(i&63)) != 0 }

const (
	// memoBits sizes the affinity policies' rendezvous-order memo: 1<<memoBits
	// direct-mapped slots, one key each.
	memoBits = 14
	// memoRanks is how deep a slot's rendezvous order may grow: enough that a
	// key whose first choices are full or dead still resolves from the memo
	// on a spilling fleet.
	memoRanks = 8
)

// memoSlot holds the first n places of one key's rendezvous order over every
// registered member, dead or alive: member indices by hash descending, ties
// to the lower index. gen ties the slot to the membership it was computed
// for.
type memoSlot struct {
	key  uint64
	gen  uint32
	n    uint8
	rank [memoRanks]uint8
}

// memoIndex maps a key to its memo slot (multiplicative hashing).
func memoIndex(key uint64) uint64 { return key * goldenGamma >> (64 - memoBits) }

// deepOrder is the full rendezvous order of the last key that spilled past
// its memo slot's memoRanks places, for the placements that go that deep:
// one that every member refuses walks the order once instead of scanning
// every remaining candidate on each attempt. Places are ranked by the memo's
// rule (hash descending, ties to the lower index); gen ties the order to
// the membership it was built for, and is 0 while the order is empty (a
// router with members is past generation 0). cursor is where the last walk
// stopped and prefix holds every member ranked above it, so a walk whose
// candidates include none of them resumes at the cursor. builds counts the
// orders built, for the tests that pin the router's path mix.
type deepOrder struct {
	key    uint64
	gen    uint32
	cursor int
	prefix TriedSet
	builds int
	place  [maxMembers]deepPlace
}

// deepPlace is one member's place in a deep order.
type deepPlace struct {
	hash uint64
	idx  int
}

// byRank orders places hash descending, ties to the lower index.
func byRank(a, b deepPlace) int {
	switch {
	case a.hash > b.hash:
		return -1
	case a.hash < b.hash:
		return 1
	}
	return a.idx - b.idx
}

// Router places requests on fleet members according to one PolicyKind. The
// decision path is allocation-free: it runs once per simulated request.
//
// Liveness is tracked lazily: members observed dead (a routed-to winner
// whose Alive() came back false) are cached in a dead-set word array, so
// subsequent routes skip them with bit arithmetic instead of per-member
// Alive() calls. Cached-dead members are re-checked at the top of every
// route — O(dead), which is zero in steady state — so a restarted member is
// eligible again on the very next decision.
//
// The affinity policies memoize each recent key's rendezvous order over all
// members (pickRendezvous), so a repeated key routes without rehashing the
// fleet, and keep the full order of the last key that spilled past its memo
// (pickDeep), so a placement refused by every member costs one linear order
// build and one walk rather than a scan per attempt.
type Router struct {
	policy  PolicyKind
	members []Instance
	// salts holds each member's precomputed rendezvous salt
	// (mix64(id+goldenGamma)): Add-time work that halves the per-route hash
	// cost of the affinity policies.
	salts []uint64
	// all has one bit set per registered member; dead caches members
	// observed dead since their last Alive()=true sighting.
	all       TriedSet
	dead      TriedSet
	deadCount int
	// memo caches each recent key's rendezvous order; a slot is valid only
	// while its gen equals gen, which Add bumps. deep holds the full order of
	// the last key that spilled past its slot.
	memo []memoSlot
	deep *deepOrder
	gen  uint32
}

// NewRouter returns an empty router with the given policy.
func NewRouter(policy PolicyKind) *Router {
	return &Router{policy: policy, memo: make([]memoSlot, 1<<memoBits), deep: &deepOrder{}}
}

// Add registers a member. Routers are bounded at maxMembers members — the
// fixed width of the retry bitset.
func (r *Router) Add(inst Instance) {
	if len(r.members) >= maxMembers {
		panic("cluster: router exceeds 256 members")
	}
	r.all.Set(len(r.members))
	r.members = append(r.members, inst)
	r.salts = append(r.salts, mix64(uint64(inst.ID())+goldenGamma))
	r.gen++ // every memoized order predates this member
}

// Policy returns the router's policy.
func (r *Router) Policy() PolicyKind { return r.policy }

// Len returns the member count.
func (r *Router) Len() int { return len(r.members) }

// Route picks a member index for the request, or -1 if no live member is
// available.
//
//smartconf:hotpath
func (r *Router) Route(req Request) int { return r.RouteExcluding(req, TriedSet{}) }

// RouteExcluding picks a member like Route but skips members whose bit is
// set in tried — the fleet's retry loop marks each member that refused a
// request and re-routes, so rejected work spills to the next-best member
// with no per-attempt allocation.
//
//smartconf:hotpath
func (r *Router) RouteExcluding(req Request, tried TriedSet) int {
	if len(r.members) == 0 {
		return -1
	}
	key := req.Key
	if r.policy == PrefixAffinity {
		key = req.Prefix
	}
	r.reviveDead()
	for {
		// Eligible = registered &^ dead &^ tried, one word op per 64 members.
		var cand TriedSet
		any := false
		for w := 0; w < triedWords; w++ {
			cand[w] = r.all[w] &^ r.dead[w] &^ tried[w]
			any = any || cand[w] != 0
		}
		if !any {
			return -1
		}
		i := r.pickRendezvous(key, &cand)
		// One Alive() call per decision: the winner is verified, and a stale
		// winner joins the dead cache so the rescan skips it by bit math.
		if r.members[i].Alive() {
			return i
		}
		r.dead.Set(i)
		r.deadCount++
	}
}

// reviveDead re-checks every cached-dead member — O(dead), usually zero —
// clearing the bit of any member that has come back, so restarts take
// effect on the next routing decision.
func (r *Router) reviveDead() {
	if r.deadCount == 0 {
		return
	}
	for w := 0; w < triedWords; w++ {
		m := r.dead[w]
		for m != 0 {
			i := w*64 + bits.TrailingZeros64(m)
			if r.members[i].Alive() {
				r.dead[w] &^= 1 << uint(i&63)
				r.deadCount--
			}
			m &= m - 1
		}
	}
}

// pickRendezvous is the affinity pick: the rendezvous argmax over cand, read
// from the key's memoized order where it can be. cand is a subset of all
// members, so the first memoized member in cand outranks every other
// candidate. When none is, the order grows by one place (one scan over all
// members); if that place is not a candidate either, the candidate scan
// decides. A miss therefore costs at most two scans, and a repeated key whose
// owner is live and untried costs none. Once the slot holds all memoRanks
// places and none is a candidate, the key's full order decides (pickDeep).
// A full slot whose key the deep order already holds goes there directly:
// the memoized places are the order's first memoRanks, and pickDeep's
// prefix check covers them.
func (r *Router) pickRendezvous(key uint64, cand *TriedSet) int {
	s := &r.memo[memoIndex(key)]
	if s.key != key || s.gen != r.gen {
		s.key, s.gen, s.n = key, r.gen, 0
	} else if s.n == memoRanks && r.deep.key == key && r.deep.gen == r.gen {
		return r.pickDeep(key, cand)
	}
	for _, i := range s.rank[:s.n] {
		if cand.Has(int(i)) {
			return int(i)
		}
	}
	if s.n == memoRanks {
		return r.pickDeep(key, cand)
	}
	if int(s.n) < len(r.members) {
		i := r.nextRank(key, s)
		s.rank[s.n] = uint8(i)
		s.n++
		if cand.Has(i) {
			return i
		}
	}
	return r.scanRendezvous(key, cand)
}

// pickDeep returns the first candidate in key's full rendezvous order,
// building the order (in linear time, see build) when the deep order holds
// another key or membership. A placement's tried set only grows, so its
// next attempt finds no candidate above the cursor and resumes there: a
// placement refused by all N members walks the order once, O(N) in all.
// Any candidate above the cursor (a new placement, a revived member)
// restarts the walk at the top.
func (r *Router) pickDeep(key uint64, cand *TriedSet) int {
	d := r.deep
	n := len(r.members)
	if d.key != key || d.gen != r.gen {
		d.build(key, r.gen, r.salts)
	}
	j := d.cursor
	for w := 0; w < triedWords; w++ {
		if d.prefix[w]&cand[w] != 0 {
			j, d.prefix = 0, TriedSet{}
			break
		}
	}
	for ; j < n; j++ {
		i := d.place[j].idx
		if cand.Has(i) {
			d.cursor = j
			return i
		}
		d.prefix.Set(i)
	}
	return -1 // unreachable: every candidate is a member
}

// build ranks every member by key's salted hash. A counting pass on the
// hash's top byte lays the places out bucket by bucket, highest byte first
// and in index order within a bucket; an insertion pass then orders each
// bucket by byRank. No place moves past a bucket boundary, and a bucket
// holds N/256 members on average, so the build is linear in N.
func (d *deepOrder) build(key uint64, gen uint32, salts []uint64) {
	var hash [maxMembers]uint64
	var next [256]uint16 // per bucket, its count, then its next free place
	for i, salt := range salts {
		hash[i] = mix64(key ^ salt)
		next[^hash[i]>>56]++
	}
	var at uint16
	for b, c := range next {
		next[b] = at
		at += c
	}
	for i, h := range hash[:len(salts)] {
		b := ^h >> 56
		d.place[next[b]] = deepPlace{hash: h, idx: i}
		next[b]++
	}
	for j := 1; j < len(salts); j++ {
		p, k := d.place[j], j
		for ; k > 0 && byRank(p, d.place[k-1]) < 0; k-- {
			d.place[k] = d.place[k-1]
		}
		d.place[k] = p
	}
	d.key, d.gen, d.cursor, d.prefix = key, gen, 0, TriedSet{}
	d.builds++
}

// nextRank returns the member that follows s's last memoized place in key's
// rendezvous order: the highest hash below the last place's, ties ranked by
// ascending index. An empty slot's first place is the plain argmax, which
// takes a later member only on a strictly greater hash, so ties go to the
// lower index there too.
func (r *Router) nextRank(key uint64, s *memoSlot) int {
	if s.n == 0 {
		best, bestHash := 0, mix64(key^r.salts[0])
		for i, salt := range r.salts[1:] {
			if h := mix64(key ^ salt); h > bestHash {
				best, bestHash = i+1, h
			}
		}
		return best
	}
	last := int(s.rank[s.n-1])
	lastHash := mix64(key ^ r.salts[last])
	best := -1
	var bestHash uint64
	for i, salt := range r.salts {
		h := mix64(key ^ salt)
		if (h < lastHash || h == lastHash && i > last) && (best < 0 || h > bestHash) {
			best, bestHash = i, h
		}
	}
	return best
}

// scanRendezvous is the affinity scan: highest rendezvous hash over the
// eligible bits, one precomputed-salt mix per member.
func (r *Router) scanRendezvous(key uint64, cand *TriedSet) int {
	best := -1
	var bestHash uint64
	for w := 0; w < triedWords; w++ {
		m := cand[w]
		for m != 0 {
			i := w*64 + bits.TrailingZeros64(m)
			m &= m - 1
			h := mix64(key ^ r.salts[i])
			if best < 0 || h > bestHash {
				best, bestHash = i, h
			}
		}
	}
	return best
}

// goldenGamma is the splitmix64 increment: the odd constant salting each
// member's rendezvous hash stream.
const goldenGamma = 0x9e3779b97f4a7c15

// rendezvous scores (key, member) with a splitmix64-style mix. Each member
// hashes every key independently, so removing a member reassigns only the
// keys it owned — the property that keeps affinity stable under loss. The
// routing path uses the salted form (member half precomputed at Add time);
// this two-argument form is the reference the salt-pinning test compares
// against.
func rendezvous(key uint64, id int) uint64 {
	return mix64(key ^ mix64(uint64(id)+goldenGamma))
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed integer mix
// with no allocation and no table state.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

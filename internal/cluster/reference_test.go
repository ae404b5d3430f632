package cluster

import "sort"

// refRouter is Router written out plainly: the oracle FuzzRouterDifferential
// runs in lockstep with the optimized router. Candidates come from a
// per-member scan, the tried set and the seen-dead set are maps, affinity is
// the two-argument rendezvous(key, id) argmax over the candidates, and the
// load policies are the exhaustive scan or the tournament draw spelled out.
//
// The seen-dead set is part of the contract, not an optimization the
// reference may drop: a member that died since it last won a route stays in
// the tournament's draw population until a route picks it and finds it dead.
// For the deterministic policies the set makes no difference — the winner is
// the best live candidate either way — which routeByAlive checks.
type refRouter struct {
	policy   PolicyKind
	members  []Instance
	weights  []float64
	seenDead map[int]bool
	rr       int
	tick     uint64
}

func newRefRouter(policy PolicyKind) *refRouter {
	return &refRouter{policy: policy, seenDead: map[int]bool{}}
}

func (r *refRouter) add(inst Instance, weight float64) {
	if weight <= 0 {
		weight = 1
	}
	r.members = append(r.members, inst)
	r.weights = append(r.weights, weight)
}

// route places req avoiding the members in tried, or returns -1.
func (r *refRouter) route(req Request, tried map[int]bool) int {
	for i := range r.members {
		if r.seenDead[i] && r.members[i].Alive() {
			delete(r.seenDead, i)
		}
	}
	for {
		var cand []int
		for i := range r.members {
			if !r.seenDead[i] && !tried[i] {
				cand = append(cand, i)
			}
		}
		if len(cand) == 0 {
			return -1
		}
		i := r.pick(req, cand)
		if r.members[i].Alive() {
			if r.policy == RoundRobin {
				r.rr = (i + 1) % len(r.members)
			}
			return i
		}
		r.seenDead[i] = true
	}
}

// deterministic reports whether the policy ranks members in an order that
// does not depend on the candidate set, so the seen-dead set cannot change
// its decision: everything but the tournament.
func (r *refRouter) deterministic() bool {
	return (r.policy != LeastLoaded && r.policy != WeightedScore) || len(r.members) <= tournamentWidth
}

// routeByAlive is a deterministic policy's decision with liveness read from
// every member: the best live, untried member. It leaves r unchanged.
func (r *refRouter) routeByAlive(req Request, tried map[int]bool) int {
	var cand []int
	for i := range r.members {
		if r.members[i].Alive() && !tried[i] {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return -1
	}
	return r.pick(req, cand)
}

// pick applies the policy to a non-empty ascending candidate list.
func (r *refRouter) pick(req Request, cand []int) int {
	switch r.policy {
	case RoundRobin:
		for _, i := range cand {
			if i >= r.rr {
				return i
			}
		}
		return cand[0]
	case LeastLoaded, WeightedScore:
		if len(r.members) > tournamentWidth && len(cand) > tournamentWidth {
			return r.tournament(req, cand)
		}
		return r.scanLoad(req, cand)
	case KeyAffinity:
		return r.argmaxRendezvous(req.Key, cand)
	case PrefixAffinity:
		return r.argmaxRendezvous(req.Prefix, cand)
	}
	return -1
}

func (r *refRouter) score(req Request, i int) float64 {
	s := r.members[i].Load()
	if r.policy == WeightedScore {
		s = (s + req.Cost) / r.weights[i]
	}
	return s
}

// scanLoad returns the lowest-scoring candidate, ties to the lowest index.
func (r *refRouter) scanLoad(req Request, cand []int) int {
	best := cand[0]
	for _, i := range cand[1:] {
		if r.score(req, i) < r.score(req, best) {
			best = i
		}
	}
	return best
}

// tournament draws tournamentSamples candidates by position, with
// replacement, and scans the distinct draws in index order.
func (r *refRouter) tournament(req Request, cand []int) int {
	r.tick++
	drawn := map[int]bool{}
	for k := 0; k < tournamentSamples; k++ {
		drawn[cand[mix64(r.tick*goldenGamma+uint64(k))%uint64(len(cand))]] = true
	}
	var sample []int
	for i := range drawn {
		sample = append(sample, i)
	}
	sort.Ints(sample)
	return r.scanLoad(req, sample)
}

// argmaxRendezvous returns the candidate with the highest rendezvous hash,
// ties to the lowest index.
func (r *refRouter) argmaxRendezvous(key uint64, cand []int) int {
	best := cand[0]
	for _, i := range cand[1:] {
		if rendezvous(key, r.members[i].ID()) > rendezvous(key, r.members[best].ID()) {
			best = i
		}
	}
	return best
}

// order is key's full rendezvous order over every member: hash descending,
// ties to the lower index.
func (r *refRouter) order(key uint64) []int {
	out := make([]int, len(r.members))
	for i := range out {
		out[i] = i
	}
	sort.SliceStable(out, func(a, b int) bool {
		return rendezvous(key, r.members[out[a]].ID()) > rendezvous(key, r.members[out[b]].ID())
	})
	return out
}

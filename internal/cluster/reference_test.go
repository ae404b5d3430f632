package cluster

import "sort"

// refRouter is Router written out plainly: the oracle FuzzRouterDifferential
// runs in lockstep with the optimized router. Candidates come from a
// per-member scan, the tried set and the seen-dead set are maps, and the
// pick is the two-argument rendezvous(key, id) argmax over the candidates.
//
// Both policies rank members in an order that does not depend on the
// candidate set, so the seen-dead set cannot change a decision: the winner
// is the best live candidate either way, which routeByAlive checks.
type refRouter struct {
	policy   PolicyKind
	members  []Instance
	seenDead map[int]bool
}

func newRefRouter(policy PolicyKind) *refRouter {
	return &refRouter{policy: policy, seenDead: map[int]bool{}}
}

func (r *refRouter) add(inst Instance) { r.members = append(r.members, inst) }

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
			return i
		}
		r.seenDead[i] = true
	}
}

// routeByAlive is the decision with liveness read from every member: the
// best live, untried member. It leaves r unchanged.
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
	if r.policy == PrefixAffinity {
		return r.argmaxRendezvous(req.Prefix, cand)
	}
	return r.argmaxRendezvous(req.Key, cand)
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

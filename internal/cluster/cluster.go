// Package cluster promotes the substrates from one instance under one
// controller to an N-wide fleet on a single deterministic clock: N spawnable
// instances behind a routing front-end, with fleet-level configuration
// control layered over the per-instance SmartConf controllers.
//
// The paper's interaction-factor machinery (§5.4) only ever coordinated two
// knobs inside one process; production configuration control means dozens of
// interacting knobs across a fleet. This package supplies the three pieces
// that scale-out needs without touching the control math:
//
//   - Instance: the router-facing surface every fleet member exposes —
//     identity, liveness, and its load, which the member reports change by
//     change into its fleet's running total. The rpcserver, llmserve and
//     kvstore substrates satisfy it structurally (plus Kill and Restart for
//     instance-level chaos), so any of them can be fleeted.
//   - Router: one of two affinity policies over the member set —
//     key-affinity or prefix-affinity, both rendezvous hashing, stable
//     under membership change. The decision path allocates nothing and a
//     repeated key skips the O(N) scan: precomputed rendezvous salts, a
//     memoized rendezvous order per recent key, the full order of the last
//     key that spilled past its memo, and a lazily-maintained dead-member
//     bitset scanned by word-level bit tricks.
//   - Fleet[R]: the front-end. It couples the router to typed per-member
//     offer functions, retries rejected requests on the next-best member (a
//     bitmask of tried members, no allocation), enforces the global
//     admission knob against the running load total, and re-dispatches work
//     evacuated from a killed member.
//   - Coordinator: the fleet control plane — one hard fleet-wide goal shared
//     by N per-node guards plus a global admission controller (interaction
//     factor N+1), layered over per-node soft latency controllers by taking
//     the minimum of the two bounds each node's controllers propose.
//
// Everything is deterministic: no wall clock, no global rand, no map
// iteration on any observable path. A fleet scenario runs 1-wide or 256-wide
// through the same code path, and two runs with the same seed are
// byte-identical — which is what lets fleet results flow through the
// experiment engine's run cache.
package cluster

import "math"

// Instance is one fleet member as the router sees it: a spawned plant with
// sensors. The substrate behind it keeps its own typed request interface;
// the fleet couples the two via the offer function passed to Fleet.Add.
type Instance interface {
	// ID is the member's stable identity. Key-affinity hashes it, so an
	// instance keeps its keys across kill/restart cycles.
	ID() int
	// Alive reports whether the member can accept work (false after an OOM
	// crash or an injected instance loss).
	Alive() bool
	// ReportLoad hands the member its fleet's running load total: the member
	// moves its current backlog in substrate units (queued calls,
	// waiting+running sequences, occupancy bytes) into *total at once and
	// from then on adds every change of it to *total as it happens, so the
	// total is the fleet-wide load without a pass over the members. The
	// admission gate compares it only within one fleet, so units need only
	// be internally consistent.
	ReportLoad(total *int64)
}

// Request is the routing envelope: what a policy needs to place one request,
// independent of the substrate's own request type.
type Request struct {
	// Key is the affinity identity (a YCSB key, a session, a tenant).
	Key uint64
	// Prefix is the shared-prefix identity the prefix-affinity policy routes
	// on: a hash of the request's prompt prefix (chat template, system
	// prompt), coarser than Key, so requests that could reuse each other's
	// KV state co-locate.
	Prefix uint64
	// Cost is read by nothing: both policies place by rendezvous alone. It
	// stays so that callers that set it still compile.
	Cost float64
}

// maxMembers bounds the fleet width: retry routing tracks tried members in a
// fixed-size multi-word bitset (TriedSet), so four words cover the widest
// supported fleet and the retry state still lives on the stack.
const maxMembers = 256

// Fleet is the front-end over N instances serving requests of type R: it
// routes, retries, enforces the global admission knob, and counts outcomes.
type Fleet[R any] struct {
	router *Router
	offers []func(R) bool

	// load is the running fleet-wide load: every member adds each change of
	// its backlog here (Instance.ReportLoad).
	load int64
	// maxInFlight is the global admission knob: Dispatch refuses new work
	// while the fleet-wide load is at or above it. math.MaxInt = unbounded
	// (the unsafe pre-patch default, like every knob in the paper).
	maxInFlight int

	// BeforeDispatch, when set, runs at the top of every Dispatch — the
	// integration point for the global admission controller (sense fleet
	// state, move the knob, before this request is gated).
	BeforeDispatch func()
	// OnRoute, when set, observes every successful placement (including
	// re-dispatched evacuees) — the hook behind routing-stability oracles
	// and skew accounting.
	OnRoute func(req Request, member int)

	submitted    int64
	refused      int64
	throttled    int64
	redispatched int64
}

// NewFleet returns an empty fleet routing with the given policy and the
// admission knob wide open.
func NewFleet[R any](policy PolicyKind) *Fleet[R] {
	return &Fleet[R]{router: NewRouter(policy), maxInFlight: math.MaxInt}
}

// Add registers a member and its typed offer function. weight is read by
// nothing: both policies place by rendezvous alone, and it stays so that
// callers that pass it still compile. Fleets are bounded at 256 members —
// four bitset words of retry state.
func (f *Fleet[R]) Add(inst Instance, weight float64, offer func(R) bool) {
	if len(f.offers) >= maxMembers {
		panic("cluster: fleet exceeds 256 members")
	}
	f.router.Add(inst)
	f.offers = append(f.offers, offer)
	inst.ReportLoad(&f.load)
}

// Router returns the fleet's router (policy inspection, direct Route calls).
func (f *Fleet[R]) Router() *Router { return f.router }

// Len returns the member count.
func (f *Fleet[R]) Len() int { return len(f.offers) }

// Instance returns member i.
func (f *Fleet[R]) Instance(i int) Instance { return f.router.members[i] }

// TotalLoad returns the sum of every member's load — the global admission
// knob's deputy variable — from the running total the members report into.
// Dead members count their (usually zero) residual load. Loads are whole
// numbers, so the value equals the in-order float sum of the members'
// backlogs exactly.
func (f *Fleet[R]) TotalLoad() float64 { return float64(f.load) }

// SetMaxInFlight sets the global admission knob. Values below zero clamp to
// zero (admission closed).
func (f *Fleet[R]) SetMaxInFlight(n int) {
	if n < 0 {
		n = 0
	}
	f.maxInFlight = n
}

// MaxInFlight returns the current global admission bound.
func (f *Fleet[R]) MaxInFlight() int { return f.maxInFlight }

// Dispatch admits and places one request: the global admission gate first,
// then the routing policy with retry — a member that refuses (queue full,
// dead) is masked out and the next-best member is tried, so a request is
// refused only when every live member refused it. Returns false when the
// request was refused (throttled at admission, or exhausted the fleet).
// The gate reads the running load total, so it costs the same at any width.
//
//smartconf:hotpath
func (f *Fleet[R]) Dispatch(req Request, payload R) bool {
	if f.BeforeDispatch != nil {
		f.BeforeDispatch()
	}
	f.submitted++
	if f.load >= int64(f.maxInFlight) {
		f.throttled++
		f.refused++
		return false
	}
	if f.place(req, payload) {
		return true
	}
	f.refused++
	return false
}

// Redispatch re-places a request evacuated from a killed member (the client
// retry path). The request was already admitted once, so the admission gate
// is not re-applied — retries must not be throttled into oblivion by the
// very loss that displaced them.
//
//smartconf:hotpath
func (f *Fleet[R]) Redispatch(req Request, payload R) bool {
	f.redispatched++
	if f.place(req, payload) {
		return true
	}
	f.refused++
	return false
}

func (f *Fleet[R]) place(req Request, payload R) bool {
	var tried TriedSet
	for attempts := len(f.offers); attempts > 0; attempts-- {
		i := f.router.RouteExcluding(req, tried)
		if i < 0 {
			return false
		}
		if f.offers[i](payload) {
			if f.OnRoute != nil {
				f.OnRoute(req, i)
			}
			return true
		}
		tried.Set(i)
	}
	return false
}

// Submitted counts Dispatch calls (unique requests; re-dispatch excluded).
func (f *Fleet[R]) Submitted() int64 { return f.submitted }

// Refused counts requests the fleet definitively refused: throttled at the
// admission gate, or rejected by every member (including failed re-dispatch
// of evacuees). Submitted = completed + refused + pending, always.
func (f *Fleet[R]) Refused() int64 { return f.refused }

// Throttled counts refusals by the global admission gate alone.
func (f *Fleet[R]) Throttled() int64 { return f.throttled }

// Redispatched counts evacuated requests re-entered through Redispatch.
func (f *Fleet[R]) Redispatched() int64 { return f.redispatched }

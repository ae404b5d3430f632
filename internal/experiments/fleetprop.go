package experiments

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"time"

	"smartconf/internal/chaos"
	"smartconf/internal/cluster"
	"smartconf/internal/kvstore"
	"smartconf/internal/llmserve"
	"smartconf/internal/memsim"
	"smartconf/internal/proptest"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// Fleet property harnesses: small three-member fleets of each substrate run
// through a seeded loss/restart plan, reported as proptest.FleetReport for
// the fleet oracles (drains, request conservation across instance loss,
// routing stability under replay). Deliberately uncached — the replay oracle
// needs two genuine executions.

// fleetPropRegistry is the harness's row list, in report order. A new
// substrate costs one row: a fleetProp value for its request type.
// LLM-PREFIX is the LLM fleet routed by prefix affinity instead of key
// affinity, so the routing-stability oracle covers both rendezvous policies.
var fleetPropRegistry = []struct {
	name string
	run  func(substrate string, seed int64) proptest.FleetReport
}{
	{"RPC", fleetProp[workload.Op]{
		policy: cluster.KeyAffinity,
		lossAt: 40 * time.Second, restartAt: 80 * time.Second,
		loadUntil: 100 * time.Second, horizon: 240 * time.Second,
		member: func(s *sim.Simulation, f *cluster.Fleet[workload.Op], i int) (chaos.Killable, func() (int64, int64)) {
			// Property runs probe routing and conservation, not memory: a
			// big heap keeps OOM out of the picture.
			sv := addRPCMember(s, f, memsim.NewHeap(8<<30), i, 150)
			return sv, func() (int64, int64) { return sv.Completed(), int64(sv.Load()) }
		},
		drive: func(s *sim.Simulation, f *cluster.Fleet[workload.Op], seed int64, rng *rand.Rand, until time.Duration) {
			driveRPCFleet(s, f, seed+1, 128, hb3813BurstSize, until, rng)
		},
	}.run},
	{"LLM", fleetPropLLM(0).run},
	{"LLM-PREFIX", fleetPropLLM(16).run},
	{"KV", fleetProp[workload.Op]{
		policy: cluster.KeyAffinity,
		lossAt: 40 * time.Second, restartAt: 70 * time.Second,
		loadUntil: 100 * time.Second, horizon: 150 * time.Second,
		member: func(s *sim.Simulation, f *cluster.Fleet[workload.Op], i int) (chaos.Killable, func() (int64, int64)) {
			st := kvstore.NewMemstore(s, memsim.NewHeap(1<<30), kvstore.DefaultMemstoreConfig(), 0.35)
			st.SetID(i)
			f.Add(st, 1, func(op workload.Op) bool { return st.Write(op.Bytes) })
			// Writes are synchronous: nothing is ever pending at the horizon.
			return st, func() (int64, int64) { return st.Writes(), 0 }
		},
		drive: func(s *sim.Simulation, f *cluster.Fleet[workload.Op], seed int64, _ *rand.Rand, until time.Duration) {
			gen := workload.NewYCSB(seed+1, 128, workload.YCSBPhase{WriteRatio: 1, RequestBytes: 1 * mb, OpsPerSec: 20})
			poissonLoad(s, until, gen.NextInterarrival, func() {
				op := gen.NextOp()
				f.Dispatch(cluster.Request{Key: op.Key}, op)
			})
		},
	}.run},
}

// FleetSubstrates lists the substrates with a fleet property harness.
func FleetSubstrates() []string {
	names := make([]string, len(fleetPropRegistry))
	for i, r := range fleetPropRegistry {
		names[i] = r.name
	}
	return names
}

// RunFleetProperty runs the named substrate's three-member fleet under the
// seed's workload and a seeded loss/restart plan, and reports the
// conservation counters and routing trace.
func RunFleetProperty(substrate string, seed int64) proptest.FleetReport {
	for _, r := range fleetPropRegistry {
		if r.name == substrate {
			return r.run(substrate, seed)
		}
	}
	panic(fmt.Sprintf("unknown fleet substrate %q", substrate))
}

// fleetProp is one substrate's fleet property harness over requests of type
// R: the router policy, the plan and load times, a member builder and a load
// driver. run holds the rest.
type fleetProp[R any] struct {
	policy cluster.PolicyKind
	// The plan kills one member at lossAt and restarts it at restartAt; the
	// load stops at loadUntil and the run ends at horizon.
	lossAt, restartAt, loadUntil, horizon time.Duration
	// member builds member i on s and joins it to the fleet. It returns the
	// member's chaos target and a reader of its completed and pending
	// request counts.
	member func(s *sim.Simulation, f *cluster.Fleet[R], i int) (chaos.Killable, func() (completed, pending int64))
	// drive schedules the seed's load until until; rng is the run's
	// seed-keyed source.
	drive func(s *sim.Simulation, f *cluster.Fleet[R], seed int64, rng *rand.Rand, until time.Duration)
}

// run executes the harness: three members, the route trace, the loss/restart
// plan, the load, the horizon and the report, scheduled in that order.
func (h fleetProp[R]) run(substrate string, seed int64) proptest.FleetReport {
	const members = 3
	s := newScenarioSim()
	rng := rand.New(rand.NewSource(seed))
	fleet := cluster.NewFleet[R](h.policy)
	targets := make([]chaos.Killable, members)
	counts := make([]func() (int64, int64), members)
	for i := range targets {
		targets[i], counts[i] = h.member(s, fleet, i)
	}
	trace := newRouteTrace(fleet)
	lost := armLossRestart(s, seed, h.lossAt, h.restartAt, targets)
	h.drive(s, fleet, seed, rng, h.loadUntil)
	s.RunUntil(h.horizon)

	var completed, pending int64
	for _, c := range counts {
		done, left := c()
		completed += done
		pending += left
	}
	r := proptest.FleetReport{
		Substrate: substrate, Policy: fleet.Router().Policy().String(),
		Seed: seed, Horizon: h.horizon, Members: members, Lost: *lost,
		Submitted: fleet.Submitted(), Completed: completed,
		Refused: fleet.Refused(), Pending: pending,
		RouteFingerprint: fmt.Sprintf("%016x", trace.Sum64()),
	}
	r.ComputeFingerprint()
	return r
}

// fleetPropLLM is the LLM fleet's row: Poisson chat arrivals over 64
// sessions (the affinity keys). With templates > 0 each request also carries
// one of that many prompt-template identities and placement follows the
// template, not the session; 0 routes by key affinity.
func fleetPropLLM(templates int) fleetProp[workload.LLMRequest] {
	policy := cluster.KeyAffinity
	if templates > 0 {
		policy = cluster.PrefixAffinity
	}
	return fleetProp[workload.LLMRequest]{
		policy: policy,
		lossAt: 30 * time.Second, restartAt: 50 * time.Second,
		loadUntil: 60 * time.Second, horizon: 300 * time.Second,
		member: func(s *sim.Simulation, f *cluster.Fleet[workload.LLMRequest], i int) (chaos.Killable, func() (int64, int64)) {
			sv := llmserve.New(s, memsim.NewHeap(16<<30), llmserve.DefaultConfig())
			sv.SetID(i)
			sv.SetMaxBatchedTokens(8000)
			// An evacuated inference request loses its decode progress and
			// re-enters under a session key (and template) derived from its
			// shape: the substrate's request type carries neither.
			sv.OnEvacuate = func(req workload.LLMRequest) {
				r := cluster.Request{Key: uint64(req.Prompt*131 + req.Output)}
				if templates > 0 {
					r.Prefix = uint64(req.Prompt % templates)
				}
				f.Redispatch(r, req)
			}
			f.Add(sv, 1, sv.Offer)
			return sv, func() (int64, int64) { return sv.Completed(), int64(sv.Load()) }
		},
		drive: func(s *sim.Simulation, f *cluster.Fleet[workload.LLMRequest], seed int64, rng *rand.Rand, until time.Duration) {
			gen := workload.NewLLMGen(seed+1, workload.LLMPhase{
				RequestsPerSec: 12, PromptMean: 120, OutputMean: 40,
			})
			poissonLoad(s, until, gen.NextInterarrival, func() {
				req := gen.NextRequest()
				r := cluster.Request{Key: uint64(rng.Intn(64))}
				if templates > 0 {
					r.Prefix = uint64(rng.Intn(templates)) // drawn after the session key
				}
				f.Dispatch(r, req)
			})
		},
	}
}

// poissonLoad schedules arrivals until until: each interarrival gap is drawn
// when the previous arrival is scheduled, and next draws and dispatches the
// arriving request.
func poissonLoad(s *sim.Simulation, until time.Duration, gap func() time.Duration, next func()) {
	var schedule func()
	schedule = func() {
		if s.Now() >= until {
			return
		}
		s.After(gap(), func() {
			if s.Now() < until {
				next()
			}
			schedule()
		})
	}
	schedule()
}

// newRouteTrace fingerprints the fleet's (key → member) placement sequence
// via the OnRoute hook.
func newRouteTrace[R any](f *cluster.Fleet[R]) hash.Hash64 {
	h := fnv.New64a()
	f.OnRoute = func(req cluster.Request, member int) {
		var buf [16]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(req.Key >> (8 * i))
		}
		for i := 0; i < 8; i++ {
			buf[8+i] = byte(uint64(member) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h
}

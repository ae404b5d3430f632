package experiments

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"smartconf/internal/chaos"
	"smartconf/internal/cluster"
	"smartconf/internal/kvstore"
	"smartconf/internal/llmserve"
	"smartconf/internal/memsim"
	"smartconf/internal/proptest"
	"smartconf/internal/rpcserver"
	"smartconf/internal/workload"
)

// Fleet property harnesses: small three-member fleets of each substrate run
// through a seeded loss/restart plan, reported as proptest.FleetReport for
// the fleet oracles (drains, request conservation across instance loss,
// routing stability under replay). Deliberately uncached — the replay oracle
// needs two genuine executions.

// FleetSubstrates lists the substrates with a fleet property harness.
// LLM-PREFIX is the LLM fleet routed by prefix affinity instead of key
// affinity, so the routing-stability oracle covers both rendezvous policies.
func FleetSubstrates() []string { return []string{"RPC", "LLM", "LLM-PREFIX", "KV"} }

// RunFleetProperty runs the named substrate's three-member fleet under the
// seed's workload and a seeded loss/restart plan, and reports the
// conservation counters and routing trace.
func RunFleetProperty(substrate string, seed int64) proptest.FleetReport {
	switch substrate {
	case "RPC":
		return runFleetPropertyRPC(seed)
	case "LLM":
		return runFleetPropertyLLM(seed)
	case "LLM-PREFIX":
		return runFleetPropertyLLMPrefix(seed)
	case "KV":
		return runFleetPropertyKV(seed)
	}
	panic(fmt.Sprintf("unknown fleet substrate %q", substrate))
}

// newRouteTrace fingerprints the fleet's (key → member) placement sequence
// via the OnRoute hook.
func newRouteTrace[R any](f *cluster.Fleet[R]) *fnvTrace {
	t := &fnvTrace{h: fnv.New64a()}
	f.OnRoute = func(req cluster.Request, member int) {
		var buf [16]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(req.Key >> (8 * i))
		}
		for i := 0; i < 8; i++ {
			buf[8+i] = byte(uint64(member) >> (8 * i))
		}
		t.h.Write(buf[:])
	}
	return t
}

type fnvTrace struct {
	h interface {
		Write(p []byte) (int, error)
		Sum64() uint64
	}
}

func (t *fnvTrace) fingerprint() string { return fmt.Sprintf("%016x", t.h.Sum64()) }

func runFleetPropertyRPC(seed int64) proptest.FleetReport {
	const (
		members   = 3
		loadUntil = 100 * time.Second
		horizon   = 240 * time.Second
	)
	s := newScenarioSim()
	rng := rand.New(rand.NewSource(seed))
	fleet := cluster.NewFleet[workload.Op](cluster.KeyAffinity)
	servers := make([]*rpcserver.Server, members)
	targets := make([]chaos.Killable, members)
	for i := range servers {
		// Property runs probe routing and conservation, not memory: a big
		// heap keeps OOM out of the picture.
		servers[i] = rpcserver.New(s, memsim.NewHeap(8<<30), rpcConfig())
		servers[i].SetID(i)
		servers[i].SetMaxQueue(150)
		sv := servers[i]
		sv.OnEvacuate = func(op workload.Op) {
			fleet.Redispatch(cluster.Request{Key: op.Key, Cost: float64(op.Bytes)}, op)
		}
		fleet.Add(sv, 1, sv.Offer)
		targets[i] = sv
	}
	trace := newRouteTrace(fleet)

	plan := chaos.Plan{Name: "fleet-prop", Seed: seed, Faults: []chaos.Fault{
		chaos.InstanceLoss{At: 40 * time.Second, Targets: targets, Victim: -1},
		chaos.InstanceRestart{At: 80 * time.Second, Targets: targets, Victim: -1},
	}}
	plan.Arm(s, nil)

	w := &rpcWorkload{
		gen:        workload.NewYCSB(seed+1, 128, workload.YCSBPhase{WriteRatio: 1, RequestBytes: 1 * mb}),
		burstSize:  hb3813BurstSize,
		burstEvery: hb3813BurstEvery,
		spacing:    hb3813Spacing,
		phases:     []workload.YCSBPhase{{Name: "steady", WriteRatio: 1, RequestBytes: 1 * mb}},
	}
	w.run(s, loadUntil, rng, func(op workload.Op) {
		fleet.Dispatch(cluster.Request{Key: op.Key, Cost: float64(op.Bytes)}, op)
	})
	s.RunUntil(horizon)

	var completed, pending int64
	for _, sv := range servers {
		completed += sv.Completed()
		pending += int64(sv.Load())
	}
	r := proptest.FleetReport{
		Substrate: "RPC", Policy: fleet.Router().Policy().String(),
		Seed: seed, Horizon: horizon, Members: members, Lost: 1,
		Submitted: fleet.Submitted(), Completed: completed,
		Refused: fleet.Refused(), Pending: pending,
		RouteFingerprint: trace.fingerprint(),
	}
	r.ComputeFingerprint()
	return r
}

func runFleetPropertyLLM(seed int64) proptest.FleetReport {
	const (
		members   = 3
		loadUntil = 60 * time.Second
		horizon   = 300 * time.Second
	)
	s := newScenarioSim()
	rng := rand.New(rand.NewSource(seed))
	fleet := cluster.NewFleet[workload.LLMRequest](cluster.KeyAffinity)
	servers := make([]*llmserve.Server, members)
	targets := make([]chaos.Killable, members)
	for i := range servers {
		servers[i] = llmserve.New(s, memsim.NewHeap(16<<30), llmserve.DefaultConfig())
		servers[i].SetID(i)
		servers[i].SetMaxBatchedTokens(8000)
		sv := servers[i]
		// An evacuated inference request loses its decode progress and
		// retries on another member keyed by its session.
		fleet.Add(sv, 1, sv.Offer)
		targets[i] = sv
	}
	trace := newRouteTrace(fleet)

	plan := chaos.Plan{Name: "fleet-prop", Seed: seed, Faults: []chaos.Fault{
		chaos.InstanceLoss{At: 30 * time.Second, Targets: targets, Victim: -1},
		chaos.InstanceRestart{At: 50 * time.Second, Targets: targets, Victim: -1},
	}}
	plan.Arm(s, nil)

	// Poisson arrivals over 64 sessions (the affinity keys).
	gen := workload.NewLLMGen(seed+1, workload.LLMPhase{
		RequestsPerSec: 12, PromptMean: 120, OutputMean: 40,
	})
	var schedule func()
	schedule = func() {
		if s.Now() >= loadUntil {
			return
		}
		s.After(gen.NextInterarrival(), func() {
			if s.Now() < loadUntil {
				req := gen.NextRequest()
				key := uint64(rng.Intn(64))
				fleet.Dispatch(cluster.Request{Key: key, Cost: float64(req.Tokens())}, req)
			}
			schedule()
		})
	}
	schedule()
	// Evacuation: requests displaced by the loss re-enter under a synthetic
	// session key derived from their shape (the original key is not carried
	// by the substrate's request type).
	for i := range servers {
		sv := servers[i]
		sv.OnEvacuate = func(req workload.LLMRequest) {
			key := uint64(req.Prompt*131 + req.Output)
			fleet.Redispatch(cluster.Request{Key: key, Cost: float64(req.Tokens())}, req)
		}
	}
	s.RunUntil(horizon)

	var completed, pending int64
	for _, sv := range servers {
		completed += sv.Completed()
		pending += int64(sv.Load())
	}
	r := proptest.FleetReport{
		Substrate: "LLM", Policy: fleet.Router().Policy().String(),
		Seed: seed, Horizon: horizon, Members: members, Lost: 1,
		Submitted: fleet.Submitted(), Completed: completed,
		Refused: fleet.Refused(), Pending: pending,
		RouteFingerprint: trace.fingerprint(),
	}
	r.ComputeFingerprint()
	return r
}

// runFleetPropertyLLMPrefix is the LLM fleet under prefix-affinity routing:
// requests carry one of 16 prompt-template identities, and placement follows
// the template, not the session. Same loss/restart plan and oracles as the
// key-affinity harness — in particular AffinityStable now also pins the
// prefix policy's rendezvous stability across replays.
func runFleetPropertyLLMPrefix(seed int64) proptest.FleetReport {
	const (
		members   = 3
		templates = 16
		loadUntil = 60 * time.Second
		horizon   = 300 * time.Second
	)
	s := newScenarioSim()
	rng := rand.New(rand.NewSource(seed))
	fleet := cluster.NewFleet[workload.LLMRequest](cluster.PrefixAffinity)
	servers := make([]*llmserve.Server, members)
	targets := make([]chaos.Killable, members)
	for i := range servers {
		servers[i] = llmserve.New(s, memsim.NewHeap(16<<30), llmserve.DefaultConfig())
		servers[i].SetID(i)
		servers[i].SetMaxBatchedTokens(8000)
		sv := servers[i]
		fleet.Add(sv, 1, sv.Offer)
		targets[i] = sv
	}
	trace := newRouteTrace(fleet)

	plan := chaos.Plan{Name: "fleet-prop", Seed: seed, Faults: []chaos.Fault{
		chaos.InstanceLoss{At: 30 * time.Second, Targets: targets, Victim: -1},
		chaos.InstanceRestart{At: 50 * time.Second, Targets: targets, Victim: -1},
	}}
	plan.Arm(s, nil)

	gen := workload.NewLLMGen(seed+1, workload.LLMPhase{
		RequestsPerSec: 12, PromptMean: 120, OutputMean: 40,
	})
	var schedule func()
	schedule = func() {
		if s.Now() >= loadUntil {
			return
		}
		s.After(gen.NextInterarrival(), func() {
			if s.Now() < loadUntil {
				req := gen.NextRequest()
				fleet.Dispatch(cluster.Request{
					Key:    uint64(rng.Intn(64)),
					Prefix: uint64(rng.Intn(templates)),
					Cost:   float64(req.Tokens()),
				}, req)
			}
			schedule()
		})
	}
	schedule()
	// Evacuated requests re-enter under a template identity derived from
	// their shape (the substrate's request type carries neither key nor
	// prefix).
	for i := range servers {
		sv := servers[i]
		sv.OnEvacuate = func(req workload.LLMRequest) {
			fleet.Redispatch(cluster.Request{
				Key:    uint64(req.Prompt*131 + req.Output),
				Prefix: uint64(req.Prompt % templates),
				Cost:   float64(req.Tokens()),
			}, req)
		}
	}
	s.RunUntil(horizon)

	var completed, pending int64
	for _, sv := range servers {
		completed += sv.Completed()
		pending += int64(sv.Load())
	}
	r := proptest.FleetReport{
		Substrate: "LLM-PREFIX", Policy: fleet.Router().Policy().String(),
		Seed: seed, Horizon: horizon, Members: members, Lost: 1,
		Submitted: fleet.Submitted(), Completed: completed,
		Refused: fleet.Refused(), Pending: pending,
		RouteFingerprint: trace.fingerprint(),
	}
	r.ComputeFingerprint()
	return r
}

func runFleetPropertyKV(seed int64) proptest.FleetReport {
	const (
		members   = 3
		loadUntil = 100 * time.Second
		horizon   = 150 * time.Second
	)
	s := newScenarioSim()
	fleet := cluster.NewFleet[workload.Op](cluster.KeyAffinity)
	stores := make([]*kvstore.Memstore, members)
	targets := make([]chaos.Killable, members)
	for i := range stores {
		stores[i] = kvstore.NewMemstore(s, memsim.NewHeap(1<<30), kvstore.DefaultMemstoreConfig(), 0.35)
		stores[i].SetID(i)
		st := stores[i]
		fleet.Add(st, 1, func(op workload.Op) bool { return st.Write(op.Bytes) })
		targets[i] = st
	}
	trace := newRouteTrace(fleet)

	plan := chaos.Plan{Name: "fleet-prop", Seed: seed, Faults: []chaos.Fault{
		chaos.InstanceLoss{At: 40 * time.Second, Targets: targets, Victim: -1},
		chaos.InstanceRestart{At: 70 * time.Second, Targets: targets, Victim: -1},
	}}
	plan.Arm(s, nil)

	gen := workload.NewYCSB(seed+1, 128, workload.YCSBPhase{WriteRatio: 1, RequestBytes: 1 * mb, OpsPerSec: 20})
	var schedule func()
	schedule = func() {
		if s.Now() >= loadUntil {
			return
		}
		s.After(gen.NextInterarrival(), func() {
			if s.Now() < loadUntil {
				op := gen.NextOp()
				fleet.Dispatch(cluster.Request{Key: op.Key, Cost: float64(op.Bytes)}, op)
			}
			schedule()
		})
	}
	schedule()
	s.RunUntil(horizon)

	var completed int64
	for _, st := range stores {
		completed += st.Writes()
	}
	// Writes are synchronous: nothing is ever pending at the horizon.
	r := proptest.FleetReport{
		Substrate: "KV", Policy: fleet.Router().Policy().String(),
		Seed: seed, Horizon: horizon, Members: members, Lost: 1,
		Submitted: fleet.Submitted(), Completed: completed,
		Refused: fleet.Refused(), Pending: 0,
		RouteFingerprint: trace.fingerprint(),
	}
	r.ComputeFingerprint()
	return r
}

package experiments

import (
	"time"

	"smartconf/internal/cluster"
	"smartconf/internal/llmserve"
	"smartconf/internal/memsim"
	"smartconf/internal/rpcserver"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// The fleet raw-speed runners: the scale campaign pushed through a 256-wide
// fleet instead of a single instance, so the wide-router machinery (multi-word
// tried bitsets, precomputed rendezvous salts, the rendezvous-order memo, the
// lazy dead-member cache) is exercised at the same 10M-request scale — and
// held to the same steady-state zero-allocation window — as the per-substrate
// engines. Two fleets:
//
//   - fleetrpc: 256 RPC servers behind key-affinity routing, zipfian keys.
//     Every request walks Fleet.Dispatch → Router.RouteExcluding → Offer with
//     the admission knob wide open; a repeated key routes from its memoized
//     rendezvous order, a new one pays a salted rendezvous scan.
//   - fleetllm: 256 inference servers behind prefix-affinity routing. Requests
//     cycle through a fixed pool of prompt prefixes (chat templates), so
//     requests sharing a template co-locate — the KV-reuse placement the
//     prefix policy exists for.

const (
	// fleetScaleNodes is the campaign's fleet width: the maximum the router's
	// four-word tried bitset supports, so the last word's last bit is live.
	fleetScaleNodes = 256
	// fleetScaleQueueHint pre-sizes the fleet runners' event queues. Unlike
	// the single-instance runners, pending work scales with fleet width (each
	// busy member holds its own service/step timers), so the hint is measured
	// from recorded 10M-request runs: peaks stay under 1k on both fleets.
	fleetScaleQueueHint = 2048
	// fleetScalePrefixes is the prompt-template pool for fleetllm: wide enough
	// that rendezvous spreads templates across all 256 members, small enough
	// that each member serves a handful of templates hot.
	fleetScalePrefixes = 2048
)

// ---- fleetrpc ----

// fleetRPCScaleRunner drives 4 KB zipfian ops at 40k/s through a 256-node
// RPC fleet under key-affinity routing. Per-node service capacity is scaled
// down (2 workers) since each member sees ~1/256 of the offered load.
type fleetRPCScaleRunner struct {
	s       *sim.Simulation
	fleet   *cluster.Fleet[workload.Op]
	servers []*rpcserver.Server
	gen     *workload.YCSB
	now     time.Duration
	offered int64
}

func newFleetRPCScaleRunner() *fleetRPCScaleRunner {
	s := sim.NewWithCapacity(fleetScaleQueueHint)
	cfg := rpcserver.Config{
		Workers:            2,
		ServiceBytesPerSec: 512 << 20,
		ServiceBaseTime:    2 * time.Millisecond,
		MaxBatch:           16,
		ReadResponseFactor: 1.0,
		WriteAckBytes:      256,
		DrainBytesPerSec:   1 << 30,
		BaseHeapBytes:      100 << 20,
		ResponseRetry:      20 * time.Millisecond,
	}
	fleet := cluster.NewFleet[workload.Op](cluster.KeyAffinity)
	servers := make([]*rpcserver.Server, fleetScaleNodes)
	for i := range servers {
		servers[i] = rpcserver.New(s, memsim.NewHeap(2<<30), cfg)
		servers[i].SetID(i)
		servers[i].SetMaxQueue(1024)
		// Buffers are pre-sized to their bounds up front: each member sees
		// ~1/256 of the load, so organic watermark growth would otherwise
		// trickle allocations deep into the zero-alloc measurement window.
		servers[i].Preallocate(1024, 1024, 32)
		fleet.Add(servers[i], 1, servers[i].Offer)
	}
	gen := workload.NewYCSB(scaleSeed, 1<<20, workload.YCSBPhase{
		Name: "scale", WriteRatio: 0.5, RequestBytes: 4 << 10, OpsPerSec: 40_000,
	})
	return &fleetRPCScaleRunner{s: s, fleet: fleet, servers: servers, gen: gen}
}

func (r *fleetRPCScaleRunner) RunTo(n int64) {
	for r.offered < n {
		r.now += r.gen.NextInterarrival()
		r.s.RunUntil(r.now)
		op := r.gen.NextOp()
		r.fleet.Dispatch(cluster.Request{Key: op.Key}, op)
		r.offered++
	}
}

func (r *fleetRPCScaleRunner) Result() ScaleResult {
	var completed int64
	for _, sv := range r.servers {
		completed += sv.Completed()
	}
	return scaleResult("fleetrpc", r.s, r.offered, completed)
}

// ---- fleetllm ----

// fleetLLMScaleRunner drives the short-token chat mix at 2000 req/s through
// a 256-node inference fleet under prefix-affinity routing: each request
// carries one of fleetScalePrefixes template identities (cycled
// deterministically), and requests sharing a template land on the same
// member for KV reuse.
type fleetLLMScaleRunner struct {
	s       *sim.Simulation
	fleet   *cluster.Fleet[workload.LLMRequest]
	servers []*llmserve.Server
	gen     *workload.LLMGen
	now     time.Duration
	offered int64
}

func newFleetLLMScaleRunner() *fleetLLMScaleRunner {
	s := sim.NewWithCapacity(fleetScaleQueueHint)
	cfg := llmserve.Config{
		KVBytesPerToken:      128 << 10,
		ScratchBytesPerToken: 32 << 10,
		BaseHeapBytes:        6 << 30,
		StepBase:             2 * time.Millisecond,
		StepPerToken:         5 * time.Microsecond,
		PrefillChunk:         512,
		WaitingLimit:         4096,
	}
	fleet := cluster.NewFleet[workload.LLMRequest](cluster.PrefixAffinity)
	servers := make([]*llmserve.Server, fleetScaleNodes)
	for i := range servers {
		servers[i] = llmserve.New(s, memsim.NewHeap(16<<30), cfg)
		servers[i].SetID(i)
		servers[i].SetMaxBatchedTokens(1 << 20)
		// Pre-sized for the same reason as the RPC fleet: per-member load is
		// a sliver, so concurrency watermarks would otherwise keep growing
		// the pools long past any warm-up prefix.
		servers[i].Preallocate(512)
		fleet.Add(servers[i], 1, servers[i].Offer)
	}
	gen := workload.NewLLMGen(scaleSeed, workload.LLMPhase{
		Name: "scale", RequestsPerSec: 2000, PromptMean: 8, OutputMean: 4,
	})
	return &fleetLLMScaleRunner{s: s, fleet: fleet, servers: servers, gen: gen}
}

func (r *fleetLLMScaleRunner) RunTo(n int64) {
	for r.offered < n {
		r.now += r.gen.NextInterarrival()
		r.s.RunUntil(r.now)
		req := r.gen.NextRequest()
		// Key is the per-request session identity; Prefix the shared template
		// identity the router places on. Cycling the template pool keeps the
		// draw allocation-free and deterministic.
		r.fleet.Dispatch(cluster.Request{
			Key:    uint64(r.offered),
			Prefix: uint64(r.offered) % fleetScalePrefixes,
		}, req)
		r.offered++
	}
}

func (r *fleetLLMScaleRunner) Result() ScaleResult {
	var completed int64
	for _, sv := range r.servers {
		completed += sv.Completed()
	}
	return scaleResult("fleetllm", r.s, r.offered, completed)
}

package experiments

import (
	"fmt"
	"strings"
	"time"

	"smartconf"
	"smartconf/internal/cluster"
	"smartconf/internal/declog"
	"smartconf/internal/dfs"
	"smartconf/internal/kvstore"
	"smartconf/internal/llmserve"
	"smartconf/internal/mapred"
	"smartconf/internal/memsim"
	"smartconf/internal/rpcserver"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// The raw-speed campaign: push a large fixed request count through each of
// the five substrates and two 256-node fleets under steady load (zipfian
// keys, Poisson arrivals, no chaos, static knobs) and report what the engine
// did. Everything printed to stdout is a pure function of the seed and the
// request count — virtual time, event counts, queue watermarks — so -scale
// output is byte-identical at any worker count and a warm -cachedir rebuild
// executes zero simulations. Wall-clock speed and allocation counts are
// measured by the caller (cmd/smartconf-bench, via
// internal/benchgate.Measure) and reported on stderr, off the deterministic
// artifact.

// ScaleResult is the deterministic outcome of one raw-speed run.
type ScaleResult struct {
	Substrate string
	// Requests is the number of requests offered (writes for the stores,
	// map tasks for MapReduce); Completed is how many finished inside the
	// run's virtual horizon (in-flight work at the last offer is not
	// drained).
	Requests  int64
	Completed int64
	// VirtualTime is the simulated clock at the end of the run.
	VirtualTime time.Duration
	// Events is the number of simulation events fired; EventsPerRequest is
	// the engine-efficiency ratio the batch-dispatch work drives down.
	Events uint64
	// PeakPending is the event queue's high watermark — the measured basis
	// for each substrate's event-queue pre-sizing hint.
	PeakPending int
}

// EventsPerRequest returns fired events per offered request.
func (r ScaleResult) EventsPerRequest() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Events) / float64(r.Requests)
}

// VirtualRate returns offered requests per virtual second.
func (r ScaleResult) VirtualRate() float64 {
	if r.VirtualTime <= 0 {
		return 0
	}
	return float64(r.Requests) / r.VirtualTime.Seconds()
}

// scaleLoad is one substrate built on a simulation for the campaign.
type scaleLoad struct {
	// offer offers the next unit of work: for an open-loop substrate it
	// draws the interarrival gap, runs the simulation up to it, then draws
	// and offers one request; for MapReduce it runs one whole job.
	offer func()
	// unit is the number of requests one offer adds: 1, or a job's map
	// tasks.
	unit int64
	// completed counts the offered requests that have finished.
	completed func() int64
	// sense is the load the shadow controller senses.
	sense func() float64
}

// scaleRegistry is the campaign's substrate table in report order: the five
// single-instance engines, then the two 256-node fleets. Each row builds its
// substrate on a simulation pre-sized to queue pending events. A row's
// offer keeps its substrate's order of generator draws and simulator calls,
// which is what pins the -scale table and the run-cache entries behind it.
var scaleRegistry = []struct {
	name  string
	queue int
	build func(s *sim.Simulation) scaleLoad
}{
	{"rpc", scaleQueueHint, scaleRPC},
	{"llm", scaleQueueHint, scaleLLM},
	{"kv", scaleQueueHint, scaleKV},
	{"dfs", scaleQueueHint, scaleDFS},
	{"mapred", scaleQueueHint, scaleMapred},
	{"fleetrpc", fleetScaleQueueHint, scaleFleetRPC},
	{"fleetllm", fleetScaleQueueHint, scaleFleetLLM},
}

// ScaleSubstrates lists the campaign's substrates in report order.
var ScaleSubstrates = func() []string {
	names := make([]string, len(scaleRegistry))
	for i, r := range scaleRegistry {
		names[i] = r.name
	}
	return names
}()

const (
	// scaleSeed fixes every scale workload's rng. One seed is enough: each
	// substrate owns a private generator.
	scaleSeed = 97
	// scaleQueueHint pre-sizes the single-instance substrates' event queues.
	// The PeakPending watermarks of recorded 10M-request runs stay under 16
	// on all five (in-flight completion timers are bounded by worker
	// counts), so 64 slots cover steady state without ever growing the heap
	// array.
	scaleQueueHint = 64
	// fleetScaleQueueHint pre-sizes the fleets' event queues. Pending work
	// scales with fleet width (each busy member holds its own service/step
	// timers), so the hint is measured from recorded 10M-request runs: peaks
	// stay under 1k on both fleets.
	fleetScaleQueueHint = 2048
	// fleetScaleNodes is the fleets' width: the maximum the router's
	// four-word tried bitset supports, so the last word's last bit is live.
	fleetScaleNodes = 256
	// fleetScalePrefixes is the prompt-template pool for fleetllm: wide
	// enough that rendezvous spreads templates across all 256 members, small
	// enough that each member serves a handful of templates hot.
	fleetScalePrefixes = 2048
	// scaleLogEvery is the shadow controller's sense cadence in requests:
	// ~50 logged decisions per 50k-request benchgate window — a busier
	// control cadence than any real deployment period.
	scaleLogEvery = 1024
)

// A ScaleRunner drives one substrate under its steady scale workload,
// resumably: RunTo(n) advances until n total requests have been offered, so
// a caller can warm the free lists with a prefix of the run and then measure
// allocations over a later window of the same run.
//
// A shadow controller rides every run: every scaleLogEvery requests it
// senses the substrate's load, computes and clamps a decision and records it
// into the runner's decision log, but never actuates. The trajectory, and
// so the ScaleResult, is the static-knob run's, while the whole-run
// benchgate holds the steady-state window at zero allocations with the log
// on.
type ScaleRunner struct {
	substrate string
	s         *sim.Simulation
	scaleLoad
	conf    *smartconf.Conf
	offered int64
}

// NewScaleRunner builds the named substrate with a shadow controller
// recording into log. Unknown names panic: the set is fixed by
// ScaleSubstrates.
func NewScaleRunner(substrate string, log *declog.Log) *ScaleRunner {
	for _, row := range scaleRegistry {
		if row.name == substrate {
			s := sim.NewWithCapacity(row.queue)
			return &ScaleRunner{
				substrate: substrate,
				s:         s,
				scaleLoad: row.build(s),
				conf:      shadowScaleConf(substrate, log),
			}
		}
	}
	panic(fmt.Sprintf("experiments: unknown scale substrate %q", substrate))
}

// shadowScaleConf synthesizes the shadow controller: a plausible linear
// profile and a hard goal, so every Update exercises the full Eq. 2 +
// virtual-goal + clamp + log pipeline.
func shadowScaleConf(substrate string, log *declog.Log) *smartconf.Conf {
	profile := smartconf.NewProfile().
		Add(100, 10, 11, 12).
		Add(200, 20, 21, 22).
		Add(400, 40, 41, 39).
		Add(800, 80, 82, 81)
	conf, err := smartconf.New(smartconf.Spec{
		Name:    "scale." + substrate + ".shadow",
		Metric:  "shadow_load",
		Goal:    50,
		Hard:    true,
		Initial: 400,
		Min:     1, Max: 10_000,
	}, profile, smartconf.WithDecisionLog(log))
	if err != nil {
		panic(fmt.Sprintf("experiments: shadow controller synthesis: %v", err))
	}
	return conf
}

// RunTo offers work until n requests in total have been offered (MapReduce
// overshoots to its next whole job).
func (r *ScaleRunner) RunTo(n int64) {
	for r.offered < n {
		target := min(r.offered+scaleLogEvery, n)
		for r.offered < target {
			r.offer()
			r.offered += r.unit
		}
		r.conf.SetPerf(r.sense())
		_ = r.conf.Value() // shadow decision: computed, clamped, logged, never actuated
	}
}

// Result reports the run so far.
func (r *ScaleRunner) Result() ScaleResult {
	return ScaleResult{
		Substrate:   r.substrate,
		Requests:    r.offered,
		Completed:   r.completed(),
		VirtualTime: r.s.Now(),
		Events:      r.s.Events(),
		PeakPending: r.s.MaxPending(),
	}
}

// RunScale executes (or recalls) the substrate's raw-speed run at the given
// request count, its shadow controller logging into a fresh DeclogCapacity
// ring. Results memoize like every other run, so repeated renders and warm
// -cachedir rebuilds skip the simulation.
func RunScale(substrate string, requests int64) ScaleResult {
	return memoKeyed("scale-"+substrate, "raw", fmt.Sprintf("n=%d", requests), scaleSeed,
		func() ScaleResult {
			r := NewScaleRunner(substrate, declog.New(DeclogCapacity))
			r.RunTo(requests)
			return r.Result()
		})
}

// RenderScale renders the campaign table for the given per-substrate
// results.
func RenderScale(results []ScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s %14s %14s %14s\n",
		"substrate", "requests", "completed", "events", "events/req", "peak pending", "virtual time", "virtual req/s")
	for _, r := range results {
		fmt.Fprintf(&b, "%-8s %12d %12d %12d %12.3f %14d %14s %14.0f\n",
			r.Substrate, r.Requests, r.Completed, r.Events, r.EventsPerRequest(),
			r.PeakPending, r.VirtualTime.Round(time.Second), r.VirtualRate())
	}
	return b.String()
}

// scaleRPCConfig is the RPC server of the rpc and fleetrpc rows; a fleet
// member runs fewer workers, since it sees ~1/256 of the offered load.
func scaleRPCConfig(workers int) rpcserver.Config {
	return rpcserver.Config{
		Workers:            workers,
		ServiceBytesPerSec: 512 << 20,
		ServiceBaseTime:    2 * time.Millisecond,
		MaxBatch:           16,
		ReadResponseFactor: 1.0,
		WriteAckBytes:      256,
		DrainBytesPerSec:   1 << 30,
		BaseHeapBytes:      100 << 20,
		ResponseRetry:      20 * time.Millisecond,
	}
}

// scaleRPCPhase is the rpc and fleetrpc rows' load: 4 KB zipfian ops, half
// writes, at 40k/s.
var scaleRPCPhase = workload.YCSBPhase{
	Name: "scale", WriteRatio: 0.5, RequestBytes: 4 << 10, OpsPerSec: 40_000,
}

// scaleLLMConfig is the inference server of the llm and fleetllm rows.
var scaleLLMConfig = llmserve.Config{
	KVBytesPerToken:      128 << 10,
	ScratchBytesPerToken: 32 << 10,
	BaseHeapBytes:        6 << 30,
	StepBase:             2 * time.Millisecond,
	StepPerToken:         5 * time.Microsecond,
	PrefillChunk:         512,
	WaitingLimit:         4096,
}

// scaleLLMPhase is the llm and fleetllm rows' short-token chat mix (8-token
// prompts, 4-token outputs) at 2000 req/s, so request turnover — not decode
// length — dominates.
var scaleLLMPhase = workload.LLMPhase{
	Name: "scale", RequestsPerSec: 2000, PromptMean: 8, OutputMean: 4,
}

// scaleRPC drives the HB3813 RPC server at 40k/s against ~64k/s of service
// capacity, so the queue stays busy but never saturates.
func scaleRPC(s *sim.Simulation) scaleLoad {
	sv := rpcserver.New(s, memsim.NewHeap(8<<30), scaleRPCConfig(8))
	sv.SetMaxQueue(1024)
	gen := workload.NewYCSB(scaleSeed, 1<<20, scaleRPCPhase)
	var now time.Duration
	return scaleLoad{
		offer: func() {
			now += gen.NextInterarrival()
			s.RunUntil(now)
			sv.Offer(gen.NextOp())
		},
		unit:      1,
		completed: sv.Completed,
		sense:     func() float64 { return float64(sv.QueueLen()) },
	}
}

// scaleLLM drives the inference server with the short-token chat mix and
// fast steps.
func scaleLLM(s *sim.Simulation) scaleLoad {
	sv := llmserve.New(s, memsim.NewHeap(16<<30), scaleLLMConfig)
	sv.SetMaxBatchedTokens(1 << 20)
	gen := workload.NewLLMGen(scaleSeed, scaleLLMPhase)
	var now time.Duration
	return scaleLoad{
		offer: func() {
			now += gen.NextInterarrival()
			s.RunUntil(now)
			sv.Offer(gen.NextRequest())
		},
		unit:      1,
		completed: sv.Completed,
		sense:     func() float64 { return float64(sv.PromptTokens()) },
	}
}

// scaleKV drives the CA6059 memtable store write-only: 32 KB writes at 10k/s
// against a 64 MB threshold, flushing every couple of thousand writes.
func scaleKV(s *sim.Simulation) scaleLoad {
	st := kvstore.NewMemtableStore(s, memsim.NewHeap(64<<30), kvstore.MemtableConfig{
		FlushBytesPerSec:   512 << 20,
		FlushFixedOverhead: 100 * time.Millisecond,
		WriteBaseLatency:   2 * time.Millisecond,
		FlushPenalty:       8 * time.Millisecond,
		BaseHeapBytes:      64 << 20,
	}, 64<<20)
	gen := workload.NewYCSB(scaleSeed, 1<<20, workload.YCSBPhase{
		Name: "scale", WriteRatio: 1, RequestBytes: 32 << 10, OpsPerSec: 10_000,
	})
	var now time.Duration
	return scaleLoad{
		offer: func() {
			now += gen.NextInterarrival()
			s.RunUntil(now)
			st.Write(gen.NextOp().Bytes)
		},
		unit:      1,
		completed: st.Writes,
		sense:     func() float64 { return float64(st.MemtableBytes()) },
	}
}

// scaleDFS drives the HD4995 namenode: a steady writer stream, and at every
// 200,000th write a full content summary unless the last one is still
// running. A summary of 300k files holds the lock in chunks for about 60 s
// (600k writes) and takes longer as files accumulate, so the row exercises
// chunked lock holds and blocked writers back to back, one summary at a
// time, with no backlog of waiting summaries.
func scaleDFS(s *sim.Simulation) scaleLoad {
	nn := dfs.New(s, dfs.Config{
		PerFileCost:       200 * time.Microsecond,
		ReacquireOverhead: 50 * time.Millisecond,
		InitialFiles:      100_000,
	}, 30_000)
	// The generator only supplies interarrival gaps (writes carry no
	// payload), at the same offered rate as the kv row.
	gen := workload.NewYCSB(scaleSeed, 1<<20, workload.YCSBPhase{
		Name: "scale", WriteRatio: 1, RequestBytes: 1, OpsPerSec: 10_000,
	})
	var now time.Duration
	var writes, dus int64
	return scaleLoad{
		offer: func() {
			now += gen.NextInterarrival()
			s.RunUntil(now)
			nn.Write()
			writes++
			if writes%200_000 == 0 && nn.DusDone() == dus {
				nn.Du(nil)
				dus++
			}
		},
		unit:      1,
		completed: nn.WritesDone,
		sense:     func() float64 { return float64(nn.WritesDone()) },
	}
}

// scaleMapred drives the MR2820 cluster with back-to-back WordCount jobs; a
// "request" is one map task (the per-request unit every other substrate
// counts), 256 tasks per job.
func scaleMapred(s *sim.Simulation) scaleLoad {
	c := mapred.New(s, mapred.DefaultConfig(), 0)
	job := workload.WordCountJob{
		Name: "scale", InputBytes: 8 << 30, SplitBytes: 32 << 20,
		Parallelism: 4, SpillRatio: 1.25,
	}
	tasks := int64(job.MapTasks())
	var jobs, failed int64
	// Built once: a callback made per job would allocate.
	done := func(res mapred.JobResult) {
		if res.Failed {
			failed++
		}
	}
	return scaleLoad{
		offer: func() {
			c.RunJob(job, done)
			s.Run() // sequential jobs: drain this one completely
			jobs++
		},
		unit:      tasks,
		completed: func() int64 { return (jobs - failed) * tasks },
		sense:     func() float64 { return float64(c.MaxDiskUsed()) },
	}
}

// scaleFleetRPC drives the rpc row's load through 256 RPC servers behind
// key-affinity routing. Every request walks Fleet.Dispatch →
// Router.RouteExcluding → Offer with the admission knob wide open; a
// repeated key routes from its memoized rendezvous order, a new one pays a
// salted rendezvous scan.
func scaleFleetRPC(s *sim.Simulation) scaleLoad {
	fleet := cluster.NewFleet[workload.Op](cluster.KeyAffinity)
	servers := make([]*rpcserver.Server, fleetScaleNodes)
	for i := range servers {
		servers[i] = rpcserver.New(s, memsim.NewHeap(2<<30), scaleRPCConfig(2))
		servers[i].SetID(i)
		servers[i].SetMaxQueue(1024)
		// Buffers are pre-sized to their bounds up front: each member sees
		// ~1/256 of the load, so organic watermark growth would otherwise
		// trickle allocations deep into the zero-alloc measurement window.
		servers[i].Preallocate(1024, 1024, 32)
		fleet.Add(servers[i], 1, servers[i].Offer)
	}
	gen := workload.NewYCSB(scaleSeed, 1<<20, scaleRPCPhase)
	var now time.Duration
	return scaleLoad{
		offer: func() {
			now += gen.NextInterarrival()
			s.RunUntil(now)
			op := gen.NextOp()
			fleet.Dispatch(cluster.Request{Key: op.Key}, op)
		},
		unit:      1,
		completed: func() int64 { return completedSum(servers) },
		sense:     fleet.TotalLoad,
	}
}

// scaleFleetLLM drives the llm row's chat mix through 256 inference servers
// behind prefix-affinity routing. Requests cycle through fleetScalePrefixes
// prompt templates, so requests sharing a template co-locate — the KV-reuse
// placement the prefix policy exists for.
func scaleFleetLLM(s *sim.Simulation) scaleLoad {
	fleet := cluster.NewFleet[workload.LLMRequest](cluster.PrefixAffinity)
	servers := make([]*llmserve.Server, fleetScaleNodes)
	for i := range servers {
		servers[i] = llmserve.New(s, memsim.NewHeap(16<<30), scaleLLMConfig)
		servers[i].SetID(i)
		servers[i].SetMaxBatchedTokens(1 << 20)
		// Pre-sized for the same reason as the RPC fleet: per-member load is
		// a sliver, so concurrency watermarks would otherwise keep growing
		// the pools long past any warm-up prefix.
		servers[i].Preallocate(512)
		fleet.Add(servers[i], 1, servers[i].Offer)
	}
	gen := workload.NewLLMGen(scaleSeed, scaleLLMPhase)
	var now time.Duration
	var n uint64
	return scaleLoad{
		offer: func() {
			now += gen.NextInterarrival()
			s.RunUntil(now)
			req := gen.NextRequest()
			// Key is the per-request session identity; Prefix the shared
			// template identity the router places on. Cycling the template
			// pool keeps the draw allocation-free and deterministic.
			fleet.Dispatch(cluster.Request{Key: n, Prefix: n % fleetScalePrefixes}, req)
			n++
		},
		unit:      1,
		completed: func() int64 { return completedSum(servers) },
		sense:     fleet.TotalLoad,
	}
}

// completedSum totals a fleet's completed requests in member order.
func completedSum[S interface{ Completed() int64 }](servers []S) int64 {
	var n int64
	for _, sv := range servers {
		n += sv.Completed()
	}
	return n
}

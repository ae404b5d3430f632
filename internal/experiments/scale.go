package experiments

import (
	"fmt"
	"strings"
	"time"

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
// the five substrates under steady load (zipfian keys, Poisson arrivals, no
// chaos, no controllers) and report what the engine did. Everything printed
// to stdout is a pure function of the seed and the request count — virtual
// time, event counts, queue watermarks — so -scale output is byte-identical
// at any worker count and a warm -cachedir rebuild executes zero
// simulations. Wall-clock speed and allocation counts are measured by the
// caller (cmd/smartconf-bench, via internal/benchgate.Measure) and reported
// on stderr, off the deterministic artifact.

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
	// for each runner's NewWithCapacity pre-sizing hint.
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

// A ScaleRunner drives one substrate under its steady scale workload,
// resumably: RunTo(n) advances until n total requests have been offered, so
// a caller can warm the free lists with a prefix of the run and then measure
// allocations over a later window of the same run.
type ScaleRunner interface {
	RunTo(requests int64)
	Result() ScaleResult
}

// scaleRegistry is the campaign's substrate table in report order: the five
// single-instance engines, then the two 256-node fleets (fleetscale.go). Each
// row builds its runner and names the load a shadow controller senses on it
// (NewLoggedScaleRunner).
var scaleRegistry = []struct {
	name string
	new  func() (ScaleRunner, func() float64)
}{
	{"rpc", func() (ScaleRunner, func() float64) {
		r := newRPCScaleRunner()
		return r, func() float64 { return float64(r.sv.QueueLen()) }
	}},
	{"llm", func() (ScaleRunner, func() float64) {
		r := newLLMScaleRunner()
		return r, func() float64 { return float64(r.sv.PromptTokens()) }
	}},
	{"kv", func() (ScaleRunner, func() float64) {
		r := newKVScaleRunner()
		return r, func() float64 { return float64(r.st.MemtableBytes()) }
	}},
	{"dfs", func() (ScaleRunner, func() float64) {
		r := newDFSScaleRunner()
		return r, func() float64 { return float64(r.nn.WritesDone()) }
	}},
	{"mapred", func() (ScaleRunner, func() float64) {
		r := newMapredScaleRunner()
		return r, func() float64 { return float64(r.c.MaxDiskUsed()) }
	}},
	{"fleetrpc", func() (ScaleRunner, func() float64) {
		r := newFleetRPCScaleRunner()
		return r, r.fleet.TotalLoad
	}},
	{"fleetllm", func() (ScaleRunner, func() float64) {
		r := newFleetLLMScaleRunner()
		return r, r.fleet.TotalLoad
	}},
}

// ScaleSubstrates lists the campaign's substrates in report order.
var ScaleSubstrates = func() []string {
	names := make([]string, len(scaleRegistry))
	for i, r := range scaleRegistry {
		names[i] = r.name
	}
	return names
}()

// scaleSeed fixes every scale workload's rng. One seed is enough: each
// runner owns a private generator.
const scaleSeed = 97

// scaleQueueHint pre-sizes every runner's event queue. The PeakPending
// watermarks of recorded 10M-request runs stay under 16 on all five
// substrates (in-flight completion timers are bounded by worker counts), so
// 64 slots cover steady state without ever growing the heap array.
const scaleQueueHint = 64

// NewScaleRunner returns the named substrate's runner. Unknown names panic:
// the set is fixed by ScaleSubstrates.
func NewScaleRunner(substrate string) ScaleRunner {
	r, _ := newScaleRunner(substrate)
	return r
}

// newScaleRunner builds the named substrate's runner and its sensed load.
func newScaleRunner(substrate string) (ScaleRunner, func() float64) {
	for _, r := range scaleRegistry {
		if r.name == substrate {
			return r.new()
		}
	}
	panic(fmt.Sprintf("experiments: unknown scale substrate %q", substrate))
}

// scaleResult reports a run on s that offered requests and saw completed of
// them finish.
func scaleResult(substrate string, s *sim.Simulation, requests, completed int64) ScaleResult {
	return ScaleResult{
		Substrate:   substrate,
		Requests:    requests,
		Completed:   completed,
		VirtualTime: s.Now(),
		Events:      s.Events(),
		PeakPending: s.MaxPending(),
	}
}

// RunScale executes (or recalls) the substrate's raw-speed run at the given
// request count. Results memoize like every other run, so repeated renders
// and warm -cachedir rebuilds skip the simulation.
func RunScale(substrate string, requests int64) ScaleResult {
	return memoKeyed("scale-"+substrate, "raw", fmt.Sprintf("n=%d", requests), scaleSeed,
		func() ScaleResult {
			r := NewScaleRunner(substrate)
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

// ---- rpc ----

// rpcScaleRunner drives the HB3813 RPC server: 4 KB zipfian ops at 40k/s
// offered against ~64k/s of service capacity, so the queue stays busy but
// never saturates.
type rpcScaleRunner struct {
	s       *sim.Simulation
	sv      *rpcserver.Server
	gen     *workload.YCSB
	now     time.Duration
	offered int64
}

func newRPCScaleRunner() *rpcScaleRunner {
	s := sim.NewWithCapacity(scaleQueueHint)
	cfg := rpcserver.Config{
		Workers:            8,
		ServiceBytesPerSec: 512 << 20,
		ServiceBaseTime:    2 * time.Millisecond,
		MaxBatch:           16,
		ReadResponseFactor: 1.0,
		WriteAckBytes:      256,
		DrainBytesPerSec:   1 << 30,
		BaseHeapBytes:      100 << 20,
		ResponseRetry:      20 * time.Millisecond,
	}
	sv := rpcserver.New(s, memsim.NewHeap(8<<30), cfg)
	sv.SetMaxQueue(1024)
	gen := workload.NewYCSB(scaleSeed, 1<<20, workload.YCSBPhase{
		Name: "scale", WriteRatio: 0.5, RequestBytes: 4 << 10, OpsPerSec: 40_000,
	})
	return &rpcScaleRunner{s: s, sv: sv, gen: gen}
}

func (r *rpcScaleRunner) RunTo(n int64) {
	for r.offered < n {
		r.now += r.gen.NextInterarrival()
		r.s.RunUntil(r.now)
		r.sv.Offer(r.gen.NextOp())
		r.offered++
	}
}

func (r *rpcScaleRunner) Result() ScaleResult {
	return scaleResult("rpc", r.s, r.offered, r.sv.Completed())
}

// ---- llm ----

// llmScaleRunner drives the inference server with a short-token chat mix
// (8-token prompts, 4-token outputs) and fast steps, so request turnover —
// not decode length — dominates.
type llmScaleRunner struct {
	s       *sim.Simulation
	sv      *llmserve.Server
	gen     *workload.LLMGen
	now     time.Duration
	offered int64
}

func newLLMScaleRunner() *llmScaleRunner {
	s := sim.NewWithCapacity(scaleQueueHint)
	cfg := llmserve.Config{
		KVBytesPerToken:      128 << 10,
		ScratchBytesPerToken: 32 << 10,
		BaseHeapBytes:        6 << 30,
		StepBase:             2 * time.Millisecond,
		StepPerToken:         5 * time.Microsecond,
		PrefillChunk:         512,
		WaitingLimit:         4096,
	}
	sv := llmserve.New(s, memsim.NewHeap(16<<30), cfg)
	sv.SetMaxBatchedTokens(1 << 20)
	gen := workload.NewLLMGen(scaleSeed, workload.LLMPhase{
		Name: "scale", RequestsPerSec: 2000, PromptMean: 8, OutputMean: 4,
	})
	return &llmScaleRunner{s: s, sv: sv, gen: gen}
}

func (r *llmScaleRunner) RunTo(n int64) {
	for r.offered < n {
		r.now += r.gen.NextInterarrival()
		r.s.RunUntil(r.now)
		r.sv.Offer(r.gen.NextRequest())
		r.offered++
	}
}

func (r *llmScaleRunner) Result() ScaleResult {
	return scaleResult("llm", r.s, r.offered, r.sv.Completed())
}

// ---- kv ----

// kvScaleRunner drives the CA6059 memtable store write-only: 32 KB writes at
// 10k/s against a 64 MB threshold, flushing every couple of thousand writes.
type kvScaleRunner struct {
	s       *sim.Simulation
	st      *kvstore.MemtableStore
	gen     *workload.YCSB
	now     time.Duration
	offered int64
}

func newKVScaleRunner() *kvScaleRunner {
	s := sim.NewWithCapacity(scaleQueueHint)
	cfg := kvstore.MemtableConfig{
		FlushBytesPerSec:   512 << 20,
		FlushFixedOverhead: 100 * time.Millisecond,
		WriteBaseLatency:   2 * time.Millisecond,
		FlushPenalty:       8 * time.Millisecond,
		BaseHeapBytes:      64 << 20,
	}
	st := kvstore.NewMemtableStore(s, memsim.NewHeap(64<<30), cfg, 64<<20)
	gen := workload.NewYCSB(scaleSeed, 1<<20, workload.YCSBPhase{
		Name: "scale", WriteRatio: 1, RequestBytes: 32 << 10, OpsPerSec: 10_000,
	})
	return &kvScaleRunner{s: s, st: st, gen: gen}
}

func (r *kvScaleRunner) RunTo(n int64) {
	for r.offered < n {
		r.now += r.gen.NextInterarrival()
		r.s.RunUntil(r.now)
		r.st.Write(r.gen.NextOp().Bytes)
		r.offered++
	}
}

func (r *kvScaleRunner) Result() ScaleResult {
	return scaleResult("kv", r.s, r.offered, r.st.Writes())
}

// ---- dfs ----

// dfsScaleRunner drives the HD4995 namenode: a steady writer stream with a
// full content summary every 200k files, so the lock-hold path stays
// exercised without dominating.
type dfsScaleRunner struct {
	s       *sim.Simulation
	nn      *dfs.NameNode
	gen     *workload.YCSB
	now     time.Duration
	offered int64
}

func newDFSScaleRunner() *dfsScaleRunner {
	s := sim.NewWithCapacity(scaleQueueHint)
	cfg := dfs.Config{
		PerFileCost:       200 * time.Microsecond,
		ReacquireOverhead: 50 * time.Millisecond,
		InitialFiles:      100_000,
	}
	nn := dfs.New(s, cfg, 30_000)
	// The generator only supplies interarrival gaps (writes carry no
	// payload), at the same offered rate as the kv runner.
	gen := workload.NewYCSB(scaleSeed, 1<<20, workload.YCSBPhase{
		Name: "scale", WriteRatio: 1, RequestBytes: 1, OpsPerSec: 10_000,
	})
	return &dfsScaleRunner{s: s, nn: nn, gen: gen}
}

func (r *dfsScaleRunner) RunTo(n int64) {
	for r.offered < n {
		r.now += r.gen.NextInterarrival()
		r.s.RunUntil(r.now)
		r.nn.Write()
		r.offered++
		if r.offered%200_000 == 0 {
			r.nn.Du(nil)
		}
	}
}

func (r *dfsScaleRunner) Result() ScaleResult {
	return scaleResult("dfs", r.s, r.offered, r.nn.WritesDone())
}

// ---- mapred ----

// mapredScaleRunner drives the MR2820 cluster with back-to-back WordCount
// jobs; a "request" is one map task (the per-request unit every other
// substrate counts), 256 tasks per job.
type mapredScaleRunner struct {
	s      *sim.Simulation
	c      *mapred.Cluster
	job    workload.WordCountJob
	doneFn func(mapred.JobResult)
	tasks  int64
	failed int64
}

func newMapredScaleRunner() *mapredScaleRunner {
	s := sim.NewWithCapacity(scaleQueueHint)
	cfg := mapred.DefaultConfig()
	c := mapred.New(s, cfg, 0)
	r := &mapredScaleRunner{
		s: s, c: c,
		job: workload.WordCountJob{
			Name: "scale", InputBytes: 8 << 30, SplitBytes: 32 << 20,
			Parallelism: 4, SpillRatio: 1.25,
		},
	}
	r.doneFn = r.jobDone // bound once: a method value per job would allocate
	return r
}

func (r *mapredScaleRunner) jobDone(res mapred.JobResult) {
	if res.Failed {
		r.failed++
	}
}

func (r *mapredScaleRunner) RunTo(n int64) {
	for r.tasks < n {
		r.c.RunJob(r.job, r.doneFn)
		r.s.Run() // sequential jobs: drain this one completely
		r.tasks += int64(r.job.MapTasks())
	}
}

func (r *mapredScaleRunner) Result() ScaleResult {
	return scaleResult("mapred", r.s, r.tasks, r.tasks-r.failed*int64(r.job.MapTasks()))
}

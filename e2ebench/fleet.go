package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/cluster"
	"smartconf/internal/declog"
	"smartconf/internal/memsim"
	"smartconf/internal/rpcserver"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// fleet-rpc: 256 RPC servers behind key-affinity routing over zipfian keys,
// under the fleet control plane: a coordinator with a memory guard per node
// and a bounded global admission knob on one hard fleet-wide memory goal,
// layered over a soft p99 goal per node. The coordinator steps on
// virtual-time ticks, not per dispatch, with a decision log attached; one
// seeded instance loss and restart evacuates a member's work through the
// re-dispatch path. Overload phases make hot members refuse, so refused
// requests spill to the next member by rendezvous order.

const (
	fleetNodes    = 256
	fleetNodeHeap = 256 << 20
	fleetBaseHeap = 64 << 20
	// fleetGoalBytes leaves 1 GiB above the members' base heaps: the queues
	// of the hot members fill it in overload phases.
	fleetGoalBytes = fleetNodes*fleetBaseHeap + 1<<30
	fleetKeys      = 1 << 20
	fleetOpsPerSec = 200_000
	// fleetPhase alternates 16 KiB and 32 KiB requests every 25 ms of
	// virtual time (5k requests), so a 20k-request timing window holds two
	// whole cycles. The members holding the hottest zipfian keys overload in
	// both phases and spill; the 32 KiB phase overloads more of them.
	fleetPhase      = 25 * time.Millisecond
	fleetSmallBytes = 16 << 10
	fleetLargeBytes = 32 << 10
	fleetNodeMax    = 4096 // per-node queue bound cap
	fleetP99Goal    = 0.25 // seconds, per node (soft)
	fleetLogCap     = 4096
	fleetWarmup     = 100_000
	// The control plane's cadences, in virtual time.
	fleetMemoryTick  = 5 * time.Millisecond
	fleetLatencyTick = 50 * time.Millisecond
	// The chaos plan: one member dies and comes back.
	fleetLossAt    = time.Second
	fleetRestartAt = 1500 * time.Millisecond
)

func fleetConfig() rpcserver.Config {
	return rpcserver.Config{
		Workers:            2,
		ServiceBytesPerSec: 64 << 20,
		ServiceBaseTime:    2 * time.Millisecond,
		MaxBatch:           16,
		ReadResponseFactor: 1.0,
		WriteAckBytes:      256,
		DrainBytesPerSec:   256 << 20,
		BaseHeapBytes:      fleetBaseHeap,
		ResponseRetry:      5 * time.Millisecond,
	}
}

func fleetPhases() [2]workload.YCSBPhase {
	return [2]workload.YCSBPhase{
		{Name: "under", WriteRatio: 0.5, RequestBytes: fleetSmallBytes, OpsPerSec: fleetOpsPerSec},
		{Name: "over", WriteRatio: 0.5, RequestBytes: fleetLargeBytes, OpsPerSec: fleetOpsPerSec},
	}
}

// profileFleetNode runs one profiling campaign on a single member, through
// the public profiling path: the queue bound is pinned at each setting under
// five times the member's capacity, so the queue sits at its bound; after
// 1 s of virtual time to settle, sense reads the metric (heap bytes or p99
// seconds) every 50 ms.
func profileFleetNode(seed int64, sense func(*rpcserver.Server, *memsim.Heap) float64) (*smartconf.Profile, error) {
	var (
		s       *sim.Simulation
		sv      *rpcserver.Server
		heap    *memsim.Heap
		gen     *workload.YCSB
		now     time.Duration
		current = -1.0
	)
	overload := fleetPhases()[1]
	overload.OpsPerSec = 20_000
	advance := func(d time.Duration) {
		for until := now + d; now < until; {
			now += gen.NextInterarrival()
			s.RunUntil(now)
			sv.Offer(gen.NextOp())
		}
	}
	measure := func(setting float64) (float64, error) {
		if setting != current {
			current = setting
			s = sim.NewWithCapacity(256)
			heap = memsim.NewHeap(4 << 30)
			sv = rpcserver.New(s, heap, fleetConfig())
			sv.SetMaxQueue(int(setting))
			gen = workload.NewYCSB(seed, fleetKeys, overload)
			now = 0
			advance(time.Second)
		}
		advance(50 * time.Millisecond)
		if sv.Crashed() {
			return 0, fmt.Errorf("profiling member crashed at queue %v", setting)
		}
		return sense(sv, heap), nil
	}
	return smartconf.Plan{Settings: []float64{256, 512, 1024, 2048}, SamplesPerStep: 10}.Run(measure)
}

type fleetLoad struct {
	seed     int64
	s        *sim.Simulation
	fleet    *cluster.Fleet[workload.Op]
	servers  []*rpcserver.Server
	heaps    []*memsim.Heap
	coord    *cluster.Coordinator
	log      *declog.Log
	gen      *workload.YCSB
	phases   [2]workload.YCSBPhase
	phase    int
	switchAt time.Duration
	now      time.Duration
	offered  int64
	peakMem  int64 // highest fleet memory the memory ticks sensed

	tr *tracer
	// Traced-only counts.
	offers, senses, decisions, knobChanges int64
	inTick                                 bool
}

func newFleetLoad(seed int64, admissionMax float64, tr *tracer) (*fleetLoad, error) {
	memProfile, err := profileFleetNode(seed, func(_ *rpcserver.Server, h *memsim.Heap) float64 {
		// The member's heap plus every other member at its base: the
		// fleet-wide metric as one member's queue moves it.
		return float64(h.Used() + (fleetNodes-1)*fleetBaseHeap)
	})
	if err != nil {
		return nil, fmt.Errorf("memory profile: %w", err)
	}
	latProfile, err := profileFleetNode(seed, func(sv *rpcserver.Server, _ *memsim.Heap) float64 {
		return sv.Latency().Percentile(99).Seconds()
	})
	if err != nil {
		return nil, fmt.Errorf("latency profile: %w", err)
	}

	w := &fleetLoad{
		seed: seed, s: sim.NewWithCapacity(2048), phases: fleetPhases(), switchAt: fleetPhase,
		log: declog.New(fleetLogCap), tr: tr,
	}
	w.fleet = cluster.NewFleet[workload.Op](cluster.KeyAffinity)
	w.servers = make([]*rpcserver.Server, fleetNodes)
	w.heaps = make([]*memsim.Heap, fleetNodes)
	targets := make([]chaos.Killable, fleetNodes)
	nodes := make([]cluster.NodeControl, fleetNodes)
	logOpt := smartconf.WithDecisionLog(w.log)
	for i := range w.servers {
		h := memsim.NewHeap(fleetNodeHeap)
		sv := rpcserver.New(w.s, h, fleetConfig())
		sv.SetID(i)
		sv.SetMaxQueue(0)
		sv.Preallocate(fleetNodeMax, fleetNodeMax, 32)
		sv.OnEvacuate = func(op workload.Op) {
			w.fleet.Redispatch(cluster.Request{Key: op.Key, Cost: float64(op.Bytes)}, op)
		}
		w.servers[i], w.heaps[i], targets[i] = sv, h, sv
		if tr == nil {
			w.fleet.Add(sv, 1, sv.Offer)
		} else {
			w.fleet.Add(sv, 1, w.tracedOffer(sv))
		}
		memC, err := smartconf.NewIndirect(smartconf.Spec{
			Name:        fmt.Sprintf("node%d/ipc.server.max.queue.size#fleet-mem", i),
			Metric:      "fleet_memory_consumption",
			Goal:        fleetGoalBytes,
			Hard:        true,
			Interaction: fleetNodes + 1,
			Min:         0, Max: fleetNodeMax,
		}, memProfile, nil, logOpt)
		if err != nil {
			return nil, fmt.Errorf("synthesizing node %d memory guard: %w", i, err)
		}
		latC, err := smartconf.New(smartconf.Spec{
			Name:    fmt.Sprintf("node%d/ipc.server.max.queue.size#p99", i),
			Metric:  "p99_latency",
			Goal:    fleetP99Goal,
			Initial: fleetNodeMax,
			Min:     1, Max: fleetNodeMax,
		}, latProfile, logOpt)
		if err != nil {
			return nil, fmt.Errorf("synthesizing node %d latency controller: %w", i, err)
		}
		nodes[i] = w.nodeControl(sv, memC, latC)
	}
	admission, err := smartconf.NewIndirect(smartconf.Spec{
		Name:        "fleet/max.in.flight",
		Metric:      "fleet_memory_consumption",
		Goal:        fleetGoalBytes,
		Hard:        true,
		Interaction: fleetNodes + 1,
		Min:         0, Max: admissionMax,
	}, memProfile, nil, logOpt)
	if err != nil {
		return nil, fmt.Errorf("synthesizing admission: %w", err)
	}
	w.coord = cluster.NewCoordinator(w.fleet, w.fleetMemory, admission, nodes)
	w.coord.AttachLog(w.log)
	w.s.Every(fleetMemoryTick, fleetMemoryTick, w.memoryTick)
	w.s.Every(fleetLatencyTick, fleetLatencyTick, w.latencyTick)
	plan := chaos.Plan{Name: "fleet-loss", Seed: seed, Faults: []chaos.Fault{
		chaos.InstanceLoss{At: fleetLossAt, Targets: targets, Victim: -1},
		chaos.InstanceRestart{At: fleetRestartAt, Targets: targets, Victim: -1},
	}}
	plan.Arm(w.s, nil)
	w.gen = workload.NewYCSB(seed, fleetKeys, w.phases[0])
	w.run(fleetWarmup)
	return w, nil
}

func (w *fleetLoad) fleetMemory() float64 {
	var total int64
	for _, h := range w.heaps {
		total += h.Used()
	}
	if total > w.peakMem {
		w.peakMem = total
	}
	return float64(total)
}

func (w *fleetLoad) nodeControl(sv *rpcserver.Server, memC *smartconf.IndirectConf, latC *smartconf.Conf) cluster.NodeControl {
	nc := cluster.NodeControl{
		Inst:    sv,
		Memory:  memC,
		Latency: latC,
		Deputy:  func() float64 { return float64(sv.QueueLen()) },
		SenseLatency: func() float64 {
			return sv.Latency().Percentile(99).Seconds()
		},
		Apply: func(bound int) { sv.SetMaxQueue(bound) },
	}
	if tr := w.tr; tr != nil {
		nc.Deputy = func() float64 {
			w.decisions++
			return float64(sv.QueueLen())
		}
		nc.SenseLatency = func() float64 {
			w.senses++
			w.decisions++
			if w.inTick {
				tr.begin(spanSense)
			}
			v := sv.Latency().Percentile(99).Seconds()
			if w.inTick {
				tr.end()
			}
			return v
		}
		nc.Apply = func(bound int) {
			if bound != sv.MaxQueue() {
				w.knobChanges++
			}
			sv.SetMaxQueue(bound)
		}
	}
	return nc
}

func (w *fleetLoad) tracedOffer(sv *rpcserver.Server) func(workload.Op) bool {
	tr := w.tr
	return func(op workload.Op) bool {
		w.offers++
		if !tr.on {
			return sv.Offer(op)
		}
		tr.begin(spanOffer)
		ok := sv.Offer(op)
		tr.end()
		return ok
	}
}

func (w *fleetLoad) memoryTick() bool {
	if w.tr == nil {
		w.coord.StepMemory()
		return true
	}
	w.decisions++ // the admission knob's decision
	w.inTick = w.tr.beginAlways(spanStepMemory)
	w.coord.StepMemory()
	if w.inTick {
		w.tr.end()
		w.inTick = false
	}
	return true
}

func (w *fleetLoad) latencyTick() bool {
	if w.tr == nil {
		w.coord.StepLatency()
		return true
	}
	w.inTick = w.tr.beginAlways(spanStepLatency)
	w.coord.StepLatency()
	if w.inTick {
		w.tr.end()
		w.inTick = false
	}
	return true
}

func (w *fleetLoad) nextPhase() {
	for w.now >= w.switchAt {
		w.phase ^= 1
		w.gen.SetPhase(w.phases[w.phase])
		w.switchAt += fleetPhase
	}
}

func (w *fleetLoad) run(n int64) {
	for end := w.offered + n; w.offered < end; w.offered++ {
		w.now += w.gen.NextInterarrival()
		if w.now >= w.switchAt {
			w.nextPhase()
		}
		w.s.RunUntil(w.now)
		op := w.gen.NextOp()
		w.fleet.Dispatch(cluster.Request{Key: op.Key, Cost: float64(op.Bytes)}, op)
	}
}

func (w *fleetLoad) runTraced(n int64) {
	tr := w.tr
	for end := w.offered + n; w.offered < end; w.offered++ {
		tr.startRequest(w.offered)
		if !tr.on {
			w.now += w.gen.NextInterarrival()
			if w.now >= w.switchAt {
				w.nextPhase()
			}
			w.s.RunUntil(w.now)
			op := w.gen.NextOp()
			w.fleet.Dispatch(cluster.Request{Key: op.Key, Cost: float64(op.Bytes)}, op)
			continue
		}
		tr.begin(spanNextInterarrival)
		w.now += w.gen.NextInterarrival()
		tr.end()
		if w.now >= w.switchAt {
			w.nextPhase()
		}
		tr.begin(spanRunUntil)
		w.s.RunUntil(w.now)
		tr.end()
		tr.begin(spanNextOp)
		op := w.gen.NextOp()
		tr.end()
		tr.begin(spanDispatch)
		w.fleet.Dispatch(cluster.Request{Key: op.Key, Cost: float64(op.Bytes)}, op)
		tr.end()
		tr.endRequest()
	}
}

func (w *fleetLoad) step(n int64) {
	if w.tr != nil {
		w.runTraced(n)
		return
	}
	w.run(n)
}

func (w *fleetLoad) requests() int64 { return w.offered }

func (w *fleetLoad) admitted() int64 { return w.offered - w.fleet.Refused() }

func (w *fleetLoad) serverTotals() (completed, rejected, dropped int64) {
	for _, sv := range w.servers {
		completed += sv.Completed()
		rejected += sv.Rejected()
		dropped += sv.Dropped()
	}
	return completed, rejected, dropped
}

func (w *fleetLoad) counters() map[string]int64 {
	completed, rejected, dropped := w.serverTotals()
	c := map[string]int64{
		"offered":      w.offered,
		"submitted":    w.fleet.Submitted(),
		"refused":      w.fleet.Refused(),
		"throttled":    w.fleet.Throttled(),
		"redispatched": w.fleet.Redispatched(),
		"completed":    completed,
		"rejected":     rejected,
		"dropped":      dropped,
		"events":       int64(w.s.Events()),
		"peak_pending": int64(w.s.MaxPending()),
		"declog":       int64(w.log.Total()),
	}
	if w.tr != nil {
		c["offers"] = w.offers
		c["senses"] = w.senses
		c["decisions"] = w.decisions
		c["knob_changes"] = w.knobChanges
	}
	return c
}

func (w *fleetLoad) outcome() (outcome, error) {
	enc, err := declog.Encode(w.log.Envelope("fleet-rpc", "e2ebench", w.seed, ""))
	if err != nil {
		return outcome{}, err
	}
	completed, rejected, dropped := w.serverTotals()
	counts := []namedCount{
		{"offered", w.offered},
		{"refused", w.fleet.Refused()},
		{"throttled", w.fleet.Throttled()},
		{"redispatched", w.fleet.Redispatched()},
		{"completed", completed},
		{"rejected", rejected},
		{"dropped", dropped},
		{"events", int64(w.s.Events())},
		{"peak_pending", int64(w.s.MaxPending())},
		{"admission", int64(w.coord.Admission())},
		{"peak_fleet_mem", w.peakMem},
		{"decisions", int64(w.log.Total())},
	}
	bounds := make([]byte, 0, 8*len(w.servers))
	for _, sv := range w.servers {
		bounds = binary.LittleEndian.AppendUint64(bounds, uint64(sv.MaxQueue()))
	}
	return outcome{counts: counts, digest: digestOf(counts, bounds, enc)}, nil
}

// check verifies the seed-independent invariants: no member ran out of
// memory, the fleet stayed under its hard memory goal at every memory
// tick, and no request is counted twice.
func (w *fleetLoad) check() error {
	for i, h := range w.heaps {
		if h.OOM() {
			return fmt.Errorf("member %d ran out of memory", i)
		}
	}
	if w.peakMem > fleetGoalBytes {
		return fmt.Errorf("fleet memory peaked at %d MiB, above the %d MiB goal", w.peakMem>>20, fleetGoalBytes>>20)
	}
	completed, _, _ := w.serverTotals()
	if completed+w.fleet.Refused() > w.fleet.Submitted() {
		return fmt.Errorf("accounting: %d completed + %d refused exceeds %d submitted", completed, w.fleet.Refused(), w.fleet.Submitted())
	}
	return nil
}

func runFleet(o options) (result, error) {
	return runSim(fleetSpec(), o)
}

func fleetSpec() simSpec {
	return simSpec{
		name:        "fleet-rpc",
		window:      20_000,
		checkpoint:  1_000_000,
		setups:      5,
		spansPerReq: 8,
		knobMax:     fleetNodes * fleetNodeMax,
		build: func(seed int64, knobMax float64, tr *tracer) (simLoad, error) {
			return newFleetLoad(seed, knobMax, tr)
		},
		layers: func(in layerInput, m map[string]metric) {
			set(m, "workload.ns_per_req", in.perSampled(spanNextInterarrival, spanNextOp))
			set(m, "sim.ns_per_req", in.perSampled(spanRunUntil))
			set(m, "sim.events_per_req", in.perReq("events"))
			set(m, "sim.peak_pending", float64(in.end["peak_pending"]))
			set(m, "rpcserver.offer_ns", in.perCall(spanOffer))
			set(m, "rpcserver.rejected_frac", in.ratio("rejected", "offers"))
			set(m, "smartconf.decisions_per_req", in.perReq("decisions"))
			set(m, "smartconf.knob_changed_frac", in.ratio("knob_changes", "decisions"))
			set(m, "declog.appends_per_req", in.perReq("declog"))
			set(m, "cluster.dispatch_ns", in.perCall(spanDispatch))
			set(m, "cluster.offers_per_dispatch", in.ratio("offers", "submitted"))
			set(m, "cluster.refused_frac", in.ratio("refused", "submitted"))
			set(m, "cluster.throttled_frac", in.ratio("throttled", "submitted"))
			set(m, "cluster.redispatched", float64(in.end["redispatched"]))
			set(m, "cluster.step_memory_ns", in.perCall(spanStepMemory))
			set(m, "cluster.step_latency_ns", in.perCall(spanStepLatency))
			set(m, "metrics.sense_ns", in.perCall(spanSense))
			set(m, "metrics.senses_per_req", in.perReq("senses"))
		},
	}
}

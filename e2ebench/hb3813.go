package main

import (
	"fmt"
	"time"

	"smartconf"
	"smartconf/internal/declog"
	"smartconf/internal/memsim"
	"smartconf/internal/rpcserver"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// hb3813-admit: HB3813's control loop on a server's request path. One RPC
// server on a 512 MiB simulated heap with the hard 495 MiB goal; an
// IndirectConf on max.queue.size is asked for a decision (SetPerf with the
// heap and the queue length, then Conf) at every admission through
// BeforeAdmit, with a decision log attached. Zipfian YCSB reads and writes
// arrive open-loop in virtual time; phases alternate between an
// under-capacity request size and an overload one (HB3813's request-size
// step), so the queue grows until the controller caps it near the goal.

const (
	admitHeapBytes = 512 << 20
	admitGoalBytes = 495 << 20
	admitBaseHeap  = 400 << 20
	admitKeys      = 1 << 20
	admitOpsPerSec = 10_000
	// admitPhase is how long each request-size phase lasts in virtual time:
	// 2 s under capacity (32 KiB requests, ~62% load), 2 s overloaded
	// (64 KiB, ~125%).
	admitPhase      = 2 * time.Second
	admitSmallBytes = 32 << 10
	admitLargeBytes = 64 << 10
	admitKnobMax    = 20_000
	admitLogCap     = 4096
	admitWarmup     = 200_000 // requests offered during set-up
)

func admitConfig() rpcserver.Config {
	return rpcserver.Config{
		Workers:            8,
		ServiceBytesPerSec: 64 << 20,
		ServiceBaseTime:    500 * time.Microsecond,
		MaxBatch:           16,
		ReadResponseFactor: 1.0,
		WriteAckBytes:      256,
		DrainBytesPerSec:   1 << 30,
		BaseHeapBytes:      admitBaseHeap,
		ResponseRetry:      5 * time.Millisecond,
	}
}

func admitPhases() [2]workload.YCSBPhase {
	return [2]workload.YCSBPhase{
		{Name: "under", WriteRatio: 0.5, RequestBytes: admitSmallBytes, OpsPerSec: admitOpsPerSec},
		{Name: "over", WriteRatio: 0.5, RequestBytes: admitLargeBytes, OpsPerSec: admitOpsPerSec},
	}
}

// profileAdmit is HB3813's profiling campaign through the public profiling
// path: max.queue.size is pinned at each setting on a profiling server
// under continuous overload, and the heap is sampled as the queue sits at
// its bound. The profile relates the deputy (queue length) to memory.
func profileAdmit(seed int64) (*smartconf.Profile, error) {
	var (
		s       *sim.Simulation
		sv      *rpcserver.Server
		heap    *memsim.Heap
		gen     *workload.YCSB
		now     time.Duration
		current = -1.0
	)
	overload := admitPhases()[1]
	measure := func(setting float64) (float64, error) {
		if setting != current {
			current = setting
			s = sim.NewWithCapacity(256)
			heap = memsim.NewHeap(4 << 30) // profiling must not OOM
			sv = rpcserver.New(s, heap, admitConfig())
			sv.SetMaxQueue(int(setting))
			gen = workload.NewYCSB(seed, admitKeys, overload)
			now = 0
		}
		// Advance 100 ms of overload, then sample at an admission instant.
		until := now + 100*time.Millisecond
		for now < until {
			now += gen.NextInterarrival()
			s.RunUntil(now)
			sv.Offer(gen.NextOp())
		}
		if sv.Crashed() {
			return 0, fmt.Errorf("profiling server crashed at queue %v", setting)
		}
		return float64(heap.Used()), nil
	}
	plan := smartconf.Plan{Settings: []float64{250, 500, 750, 1000}, SamplesPerStep: 10}
	return plan.Run(measure)
}

type admitLoad struct {
	seed     int64
	s        *sim.Simulation
	heap     *memsim.Heap
	sv       *rpcserver.Server
	log      *declog.Log
	gen      *workload.YCSB
	phases   [2]workload.YCSBPhase
	phase    int
	switchAt time.Duration
	now      time.Duration
	offered  int64

	tr *tracer // non-nil only for traced instances
	// Traced-only counts.
	decisions   int64
	knobChanges int64
}

// newAdmitLoad runs the workload's set-up: profiling, controller synthesis,
// server construction and the warm-up prefix. knobMax bounds the admission
// knob; tests close the knob with it.
func newAdmitLoad(seed int64, knobMax float64, tr *tracer) (*admitLoad, error) {
	profile, err := profileAdmit(seed)
	if err != nil {
		return nil, err
	}
	log := declog.New(admitLogCap)
	ic, err := smartconf.NewIndirect(smartconf.Spec{
		Name:    "ipc.server.max.queue.size",
		Metric:  "memory_consumption",
		Goal:    admitGoalBytes,
		Hard:    true,
		Initial: 0,
		Min:     0, Max: knobMax,
	}, profile, nil, smartconf.WithDecisionLog(log))
	if err != nil {
		return nil, fmt.Errorf("synthesizing max.queue.size: %w", err)
	}
	s := sim.NewWithCapacity(256)
	heap := memsim.NewHeap(admitHeapBytes)
	sv := rpcserver.New(s, heap, admitConfig())
	sv.SetMaxQueue(0)
	sv.Preallocate(4096, 4096, 64)
	w := &admitLoad{
		seed: seed, s: s, heap: heap, sv: sv, log: log,
		phases: admitPhases(), switchAt: admitPhase, tr: tr,
	}
	w.gen = workload.NewYCSB(seed, admitKeys, w.phases[0])
	if tr == nil {
		sv.BeforeAdmit = func() {
			ic.SetPerf(float64(heap.Used()), float64(sv.QueueLen()))
			sv.SetMaxQueue(ic.Conf())
		}
	} else {
		sv.BeforeAdmit = func() {
			used, queued := float64(heap.Used()), float64(sv.QueueLen())
			if tr.on {
				tr.begin(spanDecide)
			}
			ic.SetPerf(used, queued)
			knob := ic.Conf()
			if tr.on {
				tr.end()
			}
			w.decisions++
			if knob != sv.MaxQueue() {
				w.knobChanges++
			}
			sv.SetMaxQueue(knob)
		}
	}
	w.run(admitWarmup)
	return w, nil
}

// nextPhase flips the request-size phase when virtual time crosses a
// phase boundary.
func (w *admitLoad) nextPhase() {
	for w.now >= w.switchAt {
		w.phase ^= 1
		w.gen.SetPhase(w.phases[w.phase])
		w.switchAt += admitPhase
	}
}

func (w *admitLoad) run(n int64) {
	for end := w.offered + n; w.offered < end; w.offered++ {
		w.now += w.gen.NextInterarrival()
		if w.now >= w.switchAt {
			w.nextPhase()
		}
		w.s.RunUntil(w.now)
		w.sv.Offer(w.gen.NextOp())
	}
}

func (w *admitLoad) runTraced(n int64) {
	tr := w.tr
	for end := w.offered + n; w.offered < end; w.offered++ {
		tr.startRequest(w.offered)
		if tr.on {
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
			tr.begin(spanOffer)
			w.sv.Offer(op)
			tr.end()
			tr.endRequest()
			continue
		}
		w.now += w.gen.NextInterarrival()
		if w.now >= w.switchAt {
			w.nextPhase()
		}
		w.s.RunUntil(w.now)
		w.sv.Offer(w.gen.NextOp())
	}
}

func (w *admitLoad) step(n int64) {
	if w.tr != nil {
		w.runTraced(n)
		return
	}
	w.run(n)
}

func (w *admitLoad) requests() int64 { return w.offered }

// admitted counts requests the server accepted: offered minus rejected at
// admission minus lost to a crash.
func (w *admitLoad) admitted() int64 {
	return w.offered - w.sv.Rejected() - w.sv.Dropped()
}

// outcome hashes everything the run decided: request accounting, the
// simulation's event counts, the final knob, the heap and the encoded
// decision log.
func (w *admitLoad) outcome() (outcome, error) {
	env := w.log.Envelope("hb3813-admit", "e2ebench", w.seed, "")
	enc, err := declog.Encode(env)
	if err != nil {
		return outcome{}, err
	}
	counts := []namedCount{
		{"offered", w.offered},
		{"completed", w.sv.Completed()},
		{"rejected", w.sv.Rejected()},
		{"dropped", w.sv.Dropped()},
		{"queued", int64(w.sv.QueueLen())},
		{"events", int64(w.s.Events())},
		{"peak_pending", int64(w.s.MaxPending())},
		{"max_queue", int64(w.sv.MaxQueue())},
		{"heap_used", w.heap.Used()},
		{"heap_peak", w.heap.Peak()},
		{"decisions", int64(w.log.Total())},
	}
	return outcome{counts: counts, digest: digestOf(counts, enc)}, nil
}

// check verifies what must hold on every run whatever the seed: the hard
// memory goal held (no OOM, the heap's peak under the goal) and every
// offered request is accounted for.
func (w *admitLoad) check() error {
	switch {
	case w.heap.OOM() || w.sv.Crashed():
		return fmt.Errorf("server ran out of memory")
	case w.heap.Peak() > admitGoalBytes:
		return fmt.Errorf("heap peak %d MiB above the %d MiB goal", w.heap.Peak()>>20, admitGoalBytes>>20)
	case w.sv.Completed()+w.sv.Rejected()+w.sv.Dropped()+int64(w.sv.QueueLen()) > w.offered:
		return fmt.Errorf("accounting: completed+rejected+dropped+queued exceeds %d offered", w.offered)
	}
	return nil
}

func (w *admitLoad) counters() map[string]int64 {
	c := map[string]int64{
		"offered":      w.offered,
		"events":       int64(w.s.Events()),
		"peak_pending": int64(w.s.MaxPending()),
		"rejected":     w.sv.Rejected(),
		"dropped":      w.sv.Dropped(),
		"completed":    w.sv.Completed(),
		"declog":       int64(w.log.Total()),
	}
	if w.tr != nil {
		c["decisions"] = w.decisions
		c["knob_changes"] = w.knobChanges
	}
	return c
}

func runAdmit(o options) (result, error) {
	return runSim(admitSpec(), o)
}

func admitSpec() simSpec {
	return simSpec{
		name:        "hb3813-admit",
		window:      200_000,
		checkpoint:  2_000_000,
		setups:      9,
		spansPerReq: 6,
		knobMax:     admitKnobMax,
		build: func(seed int64, knobMax float64, tr *tracer) (simLoad, error) {
			return newAdmitLoad(seed, knobMax, tr)
		},
		layers: func(in layerInput, m map[string]metric) {
			set(m, "workload.ns_per_req", in.perSampled(spanNextInterarrival, spanNextOp))
			set(m, "sim.ns_per_req", in.perSampled(spanRunUntil))
			set(m, "sim.events_per_req", in.perReq("events"))
			set(m, "sim.peak_pending", float64(in.end["peak_pending"]))
			set(m, "rpcserver.offer_ns", in.perCall(spanOffer))
			set(m, "rpcserver.rejected_frac", in.ratio("rejected", "offered"))
			set(m, "smartconf.decide_ns", in.perCall(spanDecide))
			set(m, "smartconf.decisions_per_req", in.perReq("decisions"))
			set(m, "smartconf.knob_changed_frac", in.ratio("knob_changes", "decisions"))
			set(m, "declog.appends_per_req", in.perReq("declog"))
		},
	}
}

// Package rpcserver simulates an HBase-region-server-like RPC server: a
// bounded call queue feeding a worker pool, and a bounded response queue
// draining to clients. It is the substrate for three of the paper's
// benchmark issues:
//
//   - HB3813 ipc.server.max.queue.size — the request-queue bound. Every
//     queued and in-flight call pins its payload on the heap, so the bound
//     indirectly caps memory; too large risks OOM, too small throttles
//     throughput.
//   - HB6728 ipc.server.response.queue.maxsize — the response-queue byte
//     bound, with the same memory/throughput trade-off on the read path.
//   - Figures 6, 7 and 8's case studies (single knob, controller ablations,
//     and both knobs interacting on one super-hard memory goal).
//
// The server is event-driven against a sim.Simulation and accounts every
// payload byte on a memsim.Heap; exceeding the heap is the OOM crash the
// hard goal must prevent.
package rpcserver

import (
	"time"

	"smartconf/internal/memsim"
	"smartconf/internal/metrics"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// Config fixes the server's capacity parameters.
type Config struct {
	// Workers is the number of handler threads.
	Workers int
	// ServiceBytesPerSec is each worker's processing rate.
	ServiceBytesPerSec int64
	// ServiceBaseTime is the fixed per-dispatch overhead. It is paid once
	// per batch, which is why deeper queues (bigger batches) raise
	// throughput — the trade-off side of the HB3813/HB6728 knobs.
	ServiceBaseTime time.Duration
	// MaxBatch is how many queued calls one worker dispatch may take
	// (multi-get batching / group commit). Values < 1 behave as 1.
	MaxBatch int
	// ReadResponseFactor scales a read's response size relative to its
	// request size (reads return data; writes return a small ack).
	ReadResponseFactor float64
	// ReadResponseBytes, when positive, fixes every read response at this
	// size instead of scaling the request (HB6728's workload: tiny read
	// requests fetching 2 MB values).
	ReadResponseBytes int64
	// WriteAckBytes is the response size for writes.
	WriteAckBytes int64
	// DrainBytesPerSec is the aggregate client receive rate emptying the
	// response queue.
	DrainBytesPerSec int64
	// PerConnDrainBytesPerSec, when positive, models per-connection client
	// bandwidth: the effective drain rate is
	// min(DrainBytesPerSec, PerConnDrainBytesPerSec × queued responses),
	// so a deeper response queue drains faster (more parallel transfers) —
	// the throughput side of the HB6728 trade-off.
	PerConnDrainBytesPerSec int64
	// BaseHeapBytes is allocated at startup (code, metadata, block cache).
	BaseHeapBytes int64
	// ResponseRetry is how long a worker waits before retrying when the
	// response queue is full.
	ResponseRetry time.Duration
	// DropOnRespFull, when set, drops a batch's responses instead of
	// blocking the worker when the response queue is full: the calls count
	// as rejected (clients retry), workers stay productive. This is the
	// responder discipline the HB6728 scenario uses.
	DropOnRespFull bool
}

// DefaultConfig returns the calibration used across the HB experiments.
func DefaultConfig() Config {
	return Config{
		Workers:            4,
		ServiceBytesPerSec: 48 << 20, // 48 MB/s per worker
		ServiceBaseTime:    200 * time.Millisecond,
		MaxBatch:           8,
		ReadResponseFactor: 1.0,
		WriteAckBytes:      256,
		DrainBytesPerSec:   256 << 20,
		BaseHeapBytes:      100 << 20,
		ResponseRetry:      20 * time.Millisecond,
	}
}

type call struct {
	op      workload.Op
	arrived time.Duration
}

// Server is the simulated RPC server.
type Server struct {
	sim  *sim.Simulation
	heap *memsim.Heap
	cfg  Config

	maxQueueItems int   // HB3813 knob (call count)
	maxRespBytes  int64 // HB6728 knob (bytes)

	// queue[queueHead:] is the live call queue. Consuming from the front
	// advances queueHead instead of reslicing (queue = queue[n:] would leak
	// the array's front capacity and force a reallocation per cycle); the
	// array is reset when empty and compacted when the dead prefix dominates,
	// so steady-state admission costs zero allocations.
	queue      []call
	queueHead  int
	queueBytes int64
	busy       int

	// respQueue[respHead:] holds response sizes awaiting drain (FIFO), with
	// the same dead-prefix discipline as the call queue.
	respQueue []int64
	respHead  int
	respBytes int64
	draining  bool
	drainSize int64 // size of the response being drained (one in flight)

	crashed bool

	// Fleet surface (internal/cluster): identity, liveness across injected
	// instance loss, and the in-flight batches that must be evacuated when
	// the process is killed. epoch invalidates scheduled callbacks from a
	// previous incarnation.
	id   int
	down bool

	// In-flight batches live in a slot table: slots[i] is a pooled []call or
	// nil when free, freeSlots is the free-index stack, and a scheduled
	// completion carries slot<<32|epoch as its AtArg argument — no closure,
	// and a stable identity that survives other batches retiring.
	epoch         uint64
	slots         [][]call
	slotSeq       []uint64 // dispatch order per slot: Kill evacuates oldest-first
	dispatchSeq   uint64
	freeSlots     []int
	batchPool     [][]call // retired batch buffers for reuse
	inflightCalls int

	// loadTotal receives every change of Load() (queued plus in-flight
	// calls): the fleet's running total once ReportLoad is called, until
	// then ownLoad, so reporting is one add through a pointer.
	loadTotal *int64
	ownLoad   int64

	// finishFn/drainFn are finishSlot/drainDone bound once at construction:
	// creating the method value at each AfterArg call site would allocate.
	finishFn func(uint64)
	drainFn  func(uint64)

	completed  metrics.Counter
	rejected   metrics.Counter
	dropped    metrics.Counter // client-visible failures after a crash
	throughput *metrics.Meter
	latency    *metrics.Latency

	// BeforeAdmit, when set, runs at the top of every Offer — the paper's
	// "setPerf/getConf on every enqueue" integration point for the
	// request-queue knob.
	BeforeAdmit func()
	// BeforeRespond, when set, runs before every response enqueue — the
	// integration point for the response-queue knob.
	BeforeRespond func()
	// OnEvacuate, when set, receives every queued or in-flight call displaced
	// by Kill — the fleet's client-retry path. Without it displaced calls
	// count as dropped.
	OnEvacuate func(op workload.Op)
}

// New returns a server with both knobs wide open (no request-count bound,
// no response-byte bound) — the unsafe pre-patch defaults.
func New(s *sim.Simulation, heap *memsim.Heap, cfg Config) *Server {
	sv := &Server{
		sim:           s,
		heap:          heap,
		cfg:           cfg,
		maxQueueItems: int(^uint(0) >> 1),
		maxRespBytes:  int64(^uint64(0) >> 1),
		throughput:    metrics.NewMeter(10 * time.Second),
		latency:       metrics.NewLatency(512),
	}
	sv.finishFn = sv.finishSlot
	sv.drainFn = sv.drainDone
	sv.loadTotal = &sv.ownLoad
	if err := heap.Alloc(cfg.BaseHeapBytes); err != nil {
		sv.crashed = true
	}
	return sv
}

// Preallocate grows the per-request buffers to the given high-water marks —
// the call queue, the response queue, and the in-flight slot table with its
// recycled batch slabs — so a steady-state run never grows them. Wide fleets
// need this: each member sees only a sliver of the offered load, so the
// organic watermark growth that a single busy server finishes in its first
// few thousand requests would otherwise trickle on for millions of requests
// across 256 cold pools, and the whole-run zero-allocation gate would catch
// the stragglers.
func (sv *Server) Preallocate(queueCap, respCap, batches int) {
	if cap(sv.queue) < queueCap {
		q := make([]call, len(sv.queue), queueCap)
		copy(q, sv.queue)
		sv.queue = q
	}
	if cap(sv.respQueue) < respCap {
		r := make([]int64, len(sv.respQueue), respCap)
		copy(r, sv.respQueue)
		sv.respQueue = r
	}
	if cap(sv.slots) < batches {
		slots := make([][]call, len(sv.slots), batches)
		copy(slots, sv.slots)
		sv.slots = slots
		seq := make([]uint64, len(sv.slotSeq), batches)
		copy(seq, sv.slotSeq)
		sv.slotSeq = seq
		free := make([]int, len(sv.freeSlots), batches)
		copy(free, sv.freeSlots)
		sv.freeSlots = free
	}
	capHint := sv.cfg.MaxBatch
	if capHint < 1 {
		capHint = 1
	}
	for len(sv.batchPool) < batches {
		sv.batchPool = append(sv.batchPool, make([]call, 0, capHint))
	}
}

// SetMaxQueue sets the HB3813 knob: the maximum number of queued calls.
// Values below zero clamp to zero. The queue may transiently exceed a
// lowered bound (§4.2: temporary inconsistency between C and its deputy is
// tolerated); the bound only gates new admissions.
func (sv *Server) SetMaxQueue(n int) {
	if n < 0 {
		n = 0
	}
	sv.maxQueueItems = n
}

// SetMaxRespBytes sets the HB6728 knob: the response-queue byte bound.
func (sv *Server) SetMaxRespBytes(n int64) {
	if n < 0 {
		n = 0
	}
	sv.maxRespBytes = n
}

// SetWorkers resizes the handler pool mid-run (fault injection: worker-pool
// loss). The dispatch loop reads the bound per iteration, so a shrink takes
// effect as running handlers finish; busy handlers above the new bound are
// never interrupted.
func (sv *Server) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	sv.cfg.Workers = n
}

// Workers returns the current handler-pool size.
func (sv *Server) Workers() int { return sv.cfg.Workers }

// MaxQueue returns the current request-queue bound.
func (sv *Server) MaxQueue() int { return sv.maxQueueItems }

// MaxRespBytes returns the current response-queue byte bound.
func (sv *Server) MaxRespBytes() int64 { return sv.maxRespBytes }

// QueueLen returns the number of queued calls (the HB3813 deputy variable).
func (sv *Server) QueueLen() int { return len(sv.queue) - sv.queueHead }

// RespBytes returns the response-queue occupancy in bytes (the HB6728
// deputy variable).
func (sv *Server) RespBytes() int64 { return sv.respBytes }

// Crashed reports whether the server has died (OOM).
func (sv *Server) Crashed() bool { return sv.crashed }

// Completed returns the number of completed calls.
func (sv *Server) Completed() int64 { return sv.completed.Value() }

// Rejected returns the number of calls refused at admission.
func (sv *Server) Rejected() int64 { return sv.rejected.Value() }

// Dropped returns the number of calls lost to a crashed server.
func (sv *Server) Dropped() int64 { return sv.dropped.Value() }

// Throughput returns completed calls per second over the trailing window.
func (sv *Server) Throughput() float64 { return sv.throughput.Rate(sv.sim.Now()) }

// Latency returns the server's latency tracker.
func (sv *Server) Latency() *metrics.Latency { return sv.latency }

// Offer submits one call. It returns false when the call is refused
// (queue full) or lost (server crashed).
//
//smartconf:hotpath
func (sv *Server) Offer(op workload.Op) bool {
	if sv.crashed || sv.down {
		sv.dropped.Inc()
		return false
	}
	if sv.BeforeAdmit != nil {
		sv.BeforeAdmit()
	}
	if sv.QueueLen() >= sv.maxQueueItems {
		sv.rejected.Inc()
		return false
	}
	if err := sv.heap.Alloc(op.Bytes); err != nil {
		sv.crash()
		return false
	}
	sv.queue = append(sv.queue, call{op: op, arrived: sv.sim.Now()})
	sv.queueBytes += op.Bytes
	*sv.loadTotal++
	sv.dispatch()
	return true
}

func (sv *Server) crash() {
	if sv.crashed {
		return
	}
	sv.crashed = true
	// A crashed JVM releases nothing and serves nothing; queued work is lost
	// from the clients' perspective.
	sv.dropped.Add(int64(sv.QueueLen()))
}

// getBatch returns a retired batch buffer, or a fresh one sized to MaxBatch.
func (sv *Server) getBatch() []call {
	if n := len(sv.batchPool); n > 0 {
		b := sv.batchPool[n-1][:0]
		sv.batchPool[n-1] = nil
		sv.batchPool = sv.batchPool[:n-1]
		return b
	}
	capHint := sv.cfg.MaxBatch
	if capHint < 1 {
		capHint = 1
	}
	//smartconf:allow hotalloc -- cold-start pool refill: fires only until the pool reaches steady-state depth, then every batch recycles
	return make([]call, 0, capHint)
}

// takeSlot parks an in-flight batch and returns its stable slot index.
func (sv *Server) takeSlot(batch []call) int {
	sv.dispatchSeq++
	if n := len(sv.freeSlots); n > 0 {
		slot := sv.freeSlots[n-1]
		sv.freeSlots = sv.freeSlots[:n-1]
		sv.slots[slot] = batch
		sv.slotSeq[slot] = sv.dispatchSeq
		return slot
	}
	sv.slots = append(sv.slots, batch)
	sv.slotSeq = append(sv.slotSeq, sv.dispatchSeq)
	return len(sv.slots) - 1
}

// releaseSlot retires an in-flight batch: the slot returns to the free stack
// and the buffer to the pool.
func (sv *Server) releaseSlot(slot int) {
	batch := sv.slots[slot]
	sv.slots[slot] = nil
	sv.freeSlots = append(sv.freeSlots, slot)
	sv.inflightCalls -= len(batch)
	*sv.loadTotal -= int64(len(batch))
	sv.batchPool = append(sv.batchPool, batch)
}

// finishArg packs a completion's AtArg argument: the batch's slot in the
// high 32 bits, the scheduling incarnation's epoch in the low 32. A stale
// epoch (the server was killed and the slot table cleared) makes the
// callback a no-op, exactly like the closure-captured epoch check it
// replaces.
func (sv *Server) finishArg(slot int) uint64 {
	return uint64(slot)<<32 | uint64(uint32(sv.epoch))
}

func (sv *Server) dispatch() {
	maxBatch := sv.cfg.MaxBatch
	if maxBatch < 1 {
		maxBatch = 1
	}
	for !sv.crashed && !sv.down && sv.busy < sv.cfg.Workers && sv.QueueLen() > 0 {
		n := maxBatch
		if q := sv.QueueLen(); n > q {
			n = q
		}
		batch := append(sv.getBatch(), sv.queue[sv.queueHead:sv.queueHead+n]...)
		sv.queueHead += n
		if sv.queueHead == len(sv.queue) {
			sv.queue = sv.queue[:0]
			sv.queueHead = 0
		} else if sv.queueHead > 64 && sv.queueHead*2 >= len(sv.queue) {
			m := copy(sv.queue, sv.queue[sv.queueHead:])
			sv.queue = sv.queue[:m]
			sv.queueHead = 0
		}
		sv.busy++
		var bytes int64
		for _, c := range batch {
			bytes += c.op.Bytes
		}
		d := sv.cfg.ServiceBaseTime // paid once per batch
		if sv.cfg.ServiceBytesPerSec > 0 {
			d += time.Duration(float64(bytes) / float64(sv.cfg.ServiceBytesPerSec) * float64(time.Second))
		}
		slot := sv.takeSlot(batch)
		sv.inflightCalls += n
		sv.sim.AfterArg(d, sv.finishFn, sv.finishArg(slot))
	}
}

// finishSlot is the scheduled completion entry point (bound once as
// finishFn). It unpacks the slot and epoch and drops stale incarnations.
//
//smartconf:hotpath
func (sv *Server) finishSlot(arg uint64) {
	if uint32(arg) != uint32(sv.epoch) {
		return
	}
	sv.finish(int(arg >> 32))
}

func (sv *Server) finish(slot int) {
	if sv.crashed {
		return
	}
	batch := sv.slots[slot]
	var respSize, reqBytes int64
	for _, c := range batch {
		reqBytes += c.op.Bytes
		switch {
		case c.op.Write:
			respSize += sv.cfg.WriteAckBytes
		case sv.cfg.ReadResponseBytes > 0:
			respSize += sv.cfg.ReadResponseBytes
		default:
			respSize += int64(float64(c.op.Bytes) * sv.cfg.ReadResponseFactor)
		}
	}
	if sv.BeforeRespond != nil {
		sv.BeforeRespond()
	}
	if sv.respBytes > 0 && sv.respBytes+respSize > sv.maxRespBytes {
		if sv.cfg.DropOnRespFull {
			// Responder sheds load: the batch's responses are discarded and
			// the calls count as rejected (clients will retry); the worker
			// moves on.
			sv.heap.Free(reqBytes)
			sv.queueBytes -= reqBytes
			sv.rejected.Add(int64(len(batch)))
			sv.releaseSlot(slot)
			sv.busy--
			sv.dispatch()
			return
		}
		// Responder back-pressure: the worker holds the batch and retries.
		// An oversize batch is admitted into an EMPTY response queue so a
		// bound below one batch cannot deadlock the server (§4.2's tolerated
		// transient inconsistency between a knob and its deputy).
		sv.sim.AfterArg(sv.cfg.ResponseRetry, sv.finishFn, sv.finishArg(slot))
		return
	}
	if err := sv.heap.Alloc(respSize); err != nil {
		sv.crash()
		return
	}
	// The batch's request payloads are released once the responses are built.
	sv.heap.Free(reqBytes)
	sv.queueBytes -= reqBytes
	// One response entry per call: each queued response is one in-flight
	// client transfer (the per-connection drain model counts these).
	for _, c := range batch {
		switch {
		case c.op.Write:
			sv.respQueue = append(sv.respQueue, sv.cfg.WriteAckBytes)
		case sv.cfg.ReadResponseBytes > 0:
			sv.respQueue = append(sv.respQueue, sv.cfg.ReadResponseBytes)
		default:
			sv.respQueue = append(sv.respQueue, int64(float64(c.op.Bytes)*sv.cfg.ReadResponseFactor))
		}
	}
	sv.respBytes += respSize
	sv.completed.Add(int64(len(batch)))
	sv.throughput.Mark(sv.sim.Now(), float64(len(batch)))
	for _, c := range batch {
		sv.latency.Observe(sv.sim.Now() - c.arrived)
	}
	sv.releaseSlot(slot)
	sv.busy--
	sv.drain()
	sv.dispatch()
}

func (sv *Server) respLen() int { return len(sv.respQueue) - sv.respHead }

func (sv *Server) drain() {
	if sv.draining || sv.crashed || sv.respLen() == 0 {
		return
	}
	sv.draining = true
	size := sv.respQueue[sv.respHead]
	rate := sv.cfg.DrainBytesPerSec
	if sv.cfg.PerConnDrainBytesPerSec > 0 {
		if conns := int64(sv.respLen()); conns*sv.cfg.PerConnDrainBytesPerSec < rate {
			rate = conns * sv.cfg.PerConnDrainBytesPerSec
		}
	}
	d := time.Duration(float64(size) / float64(rate) * float64(time.Second))
	if d <= 0 {
		d = time.Microsecond
	}
	sv.drainSize = size
	sv.sim.AfterArg(d, sv.drainFn, sv.epoch)
}

// drainDone is the scheduled drain completion (bound once as drainFn): one
// response has finished transferring to its client. Only one drain is in
// flight at a time, so the size lives in drainSize rather than a closure.
//
//smartconf:hotpath
func (sv *Server) drainDone(arg uint64) {
	if sv.epoch != arg {
		return
	}
	sv.draining = false
	if sv.crashed {
		return
	}
	size := sv.drainSize
	sv.respHead++
	if sv.respHead == len(sv.respQueue) {
		sv.respQueue = sv.respQueue[:0]
		sv.respHead = 0
	} else if sv.respHead > 64 && sv.respHead*2 >= len(sv.respQueue) {
		m := copy(sv.respQueue, sv.respQueue[sv.respHead:])
		sv.respQueue = sv.respQueue[:m]
		sv.respHead = 0
	}
	sv.respBytes -= size
	sv.heap.Free(size)
	sv.drain()
}

package kvstore

import (
	"time"

	"smartconf/internal/memsim"
	"smartconf/internal/metrics"
	"smartconf/internal/sim"
)

// MemstoreConfig fixes the HBase-like store's capacity parameters.
type MemstoreConfig struct {
	// UpperLimitBytes is the fixed memstore upper watermark; reaching it
	// blocks writes and triggers a flush.
	UpperLimitBytes int64
	// FlushBytesPerSec is the flush drain rate.
	FlushBytesPerSec int64
	// FlushFixedOverhead is the per-flush setup cost.
	FlushFixedOverhead time.Duration
	// WriteBaseLatency is the uncontended write latency.
	WriteBaseLatency time.Duration
	// BaseHeapBytes is allocated at startup.
	BaseHeapBytes int64
}

// DefaultMemstoreConfig returns a generic memstore calibration (32 MB/s
// flushes, 500 ms fixed overhead). The kvstore tests and the KV member of the
// fleet-property harness use it; the HB2149 scenarios use their own
// (experiments' hb2149Config: 64 MB/s, 4 s overhead).
func DefaultMemstoreConfig() MemstoreConfig {
	return MemstoreConfig{
		UpperLimitBytes:    256 << 20,
		FlushBytesPerSec:   32 << 20,
		FlushFixedOverhead: 500 * time.Millisecond,
		WriteBaseLatency:   2 * time.Millisecond,
		BaseHeapBytes:      64 << 20,
	}
}

// Memstore is the HB2149 substrate: writes accumulate until the upper
// watermark, then block while a flush drains flushFraction of the watermark.
// The knob (the paper's global.memstore.lowerLimit, re-expressed as "how
// much memstore data is flushed") trades worst-case block time against
// flush frequency.
type Memstore struct {
	sim  *sim.Simulation
	heap *memsim.Heap
	cfg  MemstoreConfig

	flushFraction float64 // the knob, in (0,1]: fraction of the watermark drained per flush

	bytes      int64
	blocked    bool
	blockStart time.Duration

	crashed bool

	// flushAmount is the bytes the single in-flight flush will drain;
	// flushDone reads it back instead of closing over it (only one flush is
	// ever in flight — blocked gates startFlush). flushDoneFn is flushDone
	// bound once: creating the method value per After call would allocate.
	flushAmount int64
	flushDoneFn func(uint64)

	// Fleet surface (internal/cluster): identity and liveness across
	// injected instance loss. epoch invalidates flush completions scheduled
	// by a previous incarnation.
	id    int
	down  bool
	epoch uint64

	// loadTotal receives every change of Load() (occupancy bytes): the
	// fleet's running total once ReportLoad is called, until then ownLoad,
	// so reporting is one add through a pointer.
	loadTotal *int64
	ownLoad   int64

	blockTimes   *metrics.Latency // the constrained metric (worst-case block)
	writes       metrics.Counter
	rejected     metrics.Counter // writes refused while the store was blocked
	flushes      metrics.Counter
	throughput   *metrics.Meter
	writeLatency *metrics.Latency

	// BeforeFlush, when set, runs when the watermark is hit, before the
	// flush amount is decided — the integration point for this CONDITIONAL
	// configuration (the controller only acts when a flush actually happens).
	BeforeFlush func()
}

// NewMemstore returns a store with the given initial flush fraction.
func NewMemstore(s *sim.Simulation, heap *memsim.Heap, cfg MemstoreConfig, flushFraction float64) *Memstore {
	st := &Memstore{
		sim:           s,
		heap:          heap,
		cfg:           cfg,
		flushFraction: clampFraction(flushFraction),
		blockTimes:    metrics.NewLatency(128),
		throughput:    metrics.NewMeter(10 * time.Second),
		writeLatency:  metrics.NewLatency(512),
	}
	st.flushDoneFn = st.flushDone
	st.loadTotal = &st.ownLoad
	if err := heap.Alloc(cfg.BaseHeapBytes); err != nil {
		st.crashed = true
	}
	return st
}

func clampFraction(f float64) float64 {
	if f < 0.01 {
		return 0.01
	}
	if f > 1 {
		return 1
	}
	return f
}

// SetFlushFraction adjusts the knob.
func (st *Memstore) SetFlushFraction(f float64) { st.flushFraction = clampFraction(f) }

// FlushFraction returns the current knob value.
func (st *Memstore) FlushFraction() float64 { return st.flushFraction }

// SetFlushBytesPerSec changes the flush drain rate mid-run (fault injection:
// a plant shift — disk contention slowing flushes). The rate is read when a
// flush starts, so an in-progress flush keeps its original duration.
func (st *Memstore) SetFlushBytesPerSec(v int64) {
	if v < 1 {
		v = 1
	}
	st.cfg.FlushBytesPerSec = v
}

// Bytes returns the current memstore occupancy.
func (st *Memstore) Bytes() int64 { return st.bytes }

// Blocked reports whether the write path is currently blocked on a flush.
func (st *Memstore) Blocked() bool { return st.blocked }

// Crashed reports an OOM death.
func (st *Memstore) Crashed() bool { return st.crashed }

// Writes returns the number of completed writes.
func (st *Memstore) Writes() int64 { return st.writes.Value() }

// Rejected returns the number of writes refused while the store was blocked.
func (st *Memstore) Rejected() int64 { return st.rejected.Value() }

// Flushes returns the number of blocking flushes performed.
func (st *Memstore) Flushes() int64 { return st.flushes.Value() }

// BlockTimes returns the block-duration tracker (the constrained metric:
// its worst case must stay under the user's goal).
func (st *Memstore) BlockTimes() *metrics.Latency { return st.blockTimes }

// WriteLatency returns the per-write latency tracker.
func (st *Memstore) WriteLatency() *metrics.Latency { return st.writeLatency }

// Throughput returns completed writes per second over the trailing window.
func (st *Memstore) Throughput() float64 { return st.throughput.Rate(st.sim.Now()) }

// Write appends bytes. Writes arriving during a blocking flush are REFUSED
// (clients see timeouts and give up — HBase's RegionTooBusyException); the
// time the store spends blocked is therefore lost throughput, which is
// exactly the trade-off against the block-time constraint.
func (st *Memstore) Write(bytes int64) bool {
	if st.crashed || st.down {
		return false
	}
	if st.blocked {
		st.rejected.Inc()
		return false
	}
	if err := st.heap.Alloc(bytes); err != nil {
		st.crashed = true
		return false
	}
	st.bytes += bytes
	*st.loadTotal += bytes
	st.writes.Inc()
	st.throughput.Mark(st.sim.Now(), 1)
	st.writeLatency.Observe(st.cfg.WriteBaseLatency)
	if st.bytes >= st.cfg.UpperLimitBytes {
		st.startFlush()
	}
	return true
}

func (st *Memstore) startFlush() {
	if st.blocked || st.crashed {
		return
	}
	if st.BeforeFlush != nil {
		st.BeforeFlush()
	}
	st.blocked = true
	st.blockStart = st.sim.Now()
	st.flushes.Inc()

	amount := int64(float64(st.cfg.UpperLimitBytes) * st.flushFraction)
	if amount > st.bytes {
		amount = st.bytes
	}
	d := st.cfg.FlushFixedOverhead
	if st.cfg.FlushBytesPerSec > 0 {
		d += time.Duration(float64(amount) / float64(st.cfg.FlushBytesPerSec) * float64(time.Second))
	}
	st.flushAmount = amount
	st.sim.AfterArg(d, st.flushDoneFn, st.epoch)
}

// flushDone retires a flush: the argument carries the scheduling
// incarnation's epoch, invalidating completions across Kill.
func (st *Memstore) flushDone(arg uint64) {
	if st.epoch != arg || st.crashed {
		return
	}
	st.heap.Free(st.flushAmount)
	st.bytes -= st.flushAmount
	*st.loadTotal -= st.flushAmount
	st.blocked = false
	st.blockTimes.Observe(st.sim.Now() - st.blockStart)
}

// Fleet surface: what internal/cluster needs to route to, kill, and restart
// this store as one member of an N-wide fleet. Writes are synchronous, so
// there is no in-flight work to evacuate — a killed store simply loses its
// unflushed data (the WAL replay a real region server would do is outside
// the model).

// SetID assigns the store's stable fleet identity (key-affinity hashes it).
func (st *Memstore) SetID(id int) { st.id = id }

// ID returns the fleet identity.
func (st *Memstore) ID() int { return st.id }

// Alive reports whether the store can accept writes: neither crashed (OOM)
// nor down (injected instance loss).
func (st *Memstore) Alive() bool { return !st.crashed && !st.down }

// Down reports whether the store is killed but restartable.
func (st *Memstore) Down() bool { return st.down }

// Load returns the store's occupancy in bytes — the amount ReportLoad keeps
// in its fleet's running load total.
func (st *Memstore) Load() float64 { return float64(st.bytes) }

// ReportLoad moves the store's load into total and makes total the target of
// every later change: writes, finished flushes and Kill.
func (st *Memstore) ReportLoad(total *int64) {
	*st.loadTotal -= st.bytes
	*total += st.bytes
	st.loadTotal = total
}

// Kill models abrupt process death for fleet chaos: the heap is released in
// full (base plus unflushed data), any in-progress flush is invalidated, and
// the store stops accepting writes until Restart.
func (st *Memstore) Kill() {
	if st.crashed || st.down {
		return
	}
	st.down = true
	st.epoch++
	st.heap.Free(st.bytes + st.cfg.BaseHeapBytes)
	*st.loadTotal -= st.bytes
	st.bytes = 0
	st.blocked = false
}

// Restart brings a killed store back cold: fresh base heap, empty memstore;
// cumulative counters persist across incarnations. A crashed (OOM) store
// stays dead. If the base heap no longer fits, the restart itself OOMs.
func (st *Memstore) Restart() {
	if st.crashed || !st.down {
		return
	}
	if err := st.heap.Alloc(st.cfg.BaseHeapBytes); err != nil {
		st.crashed = true
		return
	}
	st.down = false
}

// Package kvstore simulates LSM-style key-value store servers. It provides
// the substrates for two of the paper's benchmark issues:
//
//   - CA6059 (MemtableStore): Cassandra's memtable_total_space_in_mb bounds
//     the in-memory write buffer. Too large and the heap OOMs when other
//     objects (the read cache) grow; too small and constant flushing ruins
//     write latency. The knob is indirect: it thresholds the actual
//     memtable footprint, which is what drives memory.
//   - HB2149 (Memstore): HBase's global.memstore.lowerLimit decides how much
//     memstore data each blocking flush drains. Flush too much and writes
//     block too long; too little and the store blocks too often, hurting
//     throughput. The knob is direct and conditional (it only matters at
//     flush time).
package kvstore

import (
	"time"

	"smartconf/internal/memsim"
	"smartconf/internal/metrics"
	"smartconf/internal/sim"
)

// MemtableConfig fixes the Cassandra-like store's capacity parameters.
type MemtableConfig struct {
	// FlushBytesPerSec is the rate at which a flush drains to disk.
	FlushBytesPerSec int64
	// FlushFixedOverhead is the per-flush setup cost (compaction queueing,
	// sstable bookkeeping); this is what makes frequent small flushes
	// expensive.
	FlushFixedOverhead time.Duration
	// WriteBaseLatency is the uncontended write latency.
	WriteBaseLatency time.Duration
	// FlushPenalty is the extra latency a write pays while a flush is
	// running (IO contention).
	FlushPenalty time.Duration
	// BaseHeapBytes is allocated at startup.
	BaseHeapBytes int64
}

// DefaultMemtableConfig returns a generic memtable calibration (64 MB/s
// flushes, 2 s fixed overhead) for the kvstore tests. The CA6059 scenarios
// use their own (experiments' ca6059Config: 256 MB/s flushes), and the -scale
// kv row states its config inline.
func DefaultMemtableConfig() MemtableConfig {
	return MemtableConfig{
		FlushBytesPerSec:   64 << 20,
		FlushFixedOverhead: 2 * time.Second,
		WriteBaseLatency:   2 * time.Millisecond,
		FlushPenalty:       8 * time.Millisecond,
		BaseHeapBytes:      64 << 20,
	}
}

// MemtableStore is the CA6059 substrate.
type MemtableStore struct {
	sim  *sim.Simulation
	heap *memsim.Heap
	cfg  MemtableConfig

	threshold int64 // the knob: memtable_total_space (bytes)

	active   int64 // current memtable bytes
	flushing int64 // frozen memtable bytes being flushed

	// pending holds writes throttled because the memtable is at its limit
	// while a flush is in flight; they apply (and allocate) at flush end.
	// pending and pendingScratch ping-pong so the drain allocates nothing.
	pending        []pendingWrite
	pendingScratch []pendingWrite
	pendingBytes   int64

	cacheBytes  int64
	cacheTarget int64

	crashed bool

	// flushDoneFn is flushDone bound once — creating the method value per
	// After call would allocate.
	flushDoneFn func(uint64)

	writeLatency *metrics.Latency
	writes       metrics.Counter
	stalledOps   metrics.Counter

	// BeforeWrite, when set, runs at the top of every Write — the
	// integration point where the controller reads the sensor and adjusts
	// the threshold.
	BeforeWrite func()
}

// NewMemtableStore returns a store with the given memtable threshold.
func NewMemtableStore(s *sim.Simulation, heap *memsim.Heap, cfg MemtableConfig, threshold int64) *MemtableStore {
	st := &MemtableStore{
		sim:          s,
		heap:         heap,
		cfg:          cfg,
		threshold:    threshold,
		writeLatency: metrics.NewLatency(512),
	}
	st.flushDoneFn = st.flushDone
	if err := heap.Alloc(cfg.BaseHeapBytes); err != nil {
		st.crashed = true
	}
	return st
}

// SetThreshold adjusts the memtable_total_space knob (bytes). A live
// memtable above a lowered threshold is tolerated; the threshold gates
// future growth (§4.2 transient-inconsistency rule).
func (st *MemtableStore) SetThreshold(v int64) {
	if v < 0 {
		v = 0
	}
	st.threshold = v
}

// Threshold returns the current knob value.
func (st *MemtableStore) Threshold() int64 { return st.threshold }

// MemtableBytes returns the deputy variable: total live memtable footprint
// (active plus flushing segments).
func (st *MemtableStore) MemtableBytes() int64 { return st.active + st.flushing }

// CacheBytes returns the read-cache footprint.
func (st *MemtableStore) CacheBytes() int64 { return st.cacheBytes }

// Crashed reports an OOM death.
func (st *MemtableStore) Crashed() bool { return st.crashed }

// Writes returns the number of completed writes.
func (st *MemtableStore) Writes() int64 { return st.writes.Value() }

// StalledOps returns how many writes were throttled at the threshold.
func (st *MemtableStore) StalledOps() int64 { return st.stalledOps.Value() }

// WriteLatency returns the write-latency tracker (the trade-off metric).
func (st *MemtableStore) WriteLatency() *metrics.Latency { return st.writeLatency }

// SetCacheTarget sets the read cache's target size (the paper's "Cz" knob:
// phase-2 cache growth is the disturbance that invalidates static memtable
// settings).
func (st *MemtableStore) SetCacheTarget(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	st.cacheTarget = bytes
}

type pendingWrite struct {
	bytes int64
	at    time.Duration
}

// Write appends bytes to the active memtable. Cassandra-style admission:
// a flush freezes the active segment once the TOTAL memtable footprint
// reaches half the threshold (so there is always headroom for the next
// segment), and writes are throttled — queued until the flush completes —
// once the total reaches the threshold itself. The threshold therefore
// really caps memtable memory, which is what lets a controller bound the
// heap through it.
//
//smartconf:hotpath
func (st *MemtableStore) Write(bytes int64) bool {
	if st.crashed {
		return false
	}
	if st.BeforeWrite != nil {
		st.BeforeWrite()
	}
	if st.MemtableBytes() >= st.threshold && st.flushing > 0 {
		// At the limit with a flush in flight: throttle. The write lands
		// when the flush finishes and pays the wait as latency.
		st.stalledOps.Inc()
		st.pending = append(st.pending, pendingWrite{bytes: bytes, at: st.sim.Now()})
		st.pendingBytes += bytes
		return true
	}
	return st.apply(bytes, 0)
}

func (st *MemtableStore) apply(bytes int64, waited time.Duration) bool {
	if err := st.heap.Alloc(bytes); err != nil {
		st.crashed = true
		return false
	}
	st.active += bytes

	lat := st.cfg.WriteBaseLatency + waited
	if st.flushing > 0 {
		lat += st.cfg.FlushPenalty
	}
	st.writeLatency.Observe(lat)
	st.writes.Inc()
	st.maybeFlush()
	return true
}

// Read serves a read of the given size, growing the cache toward its target
// (reads populate the block/index cache, which competes for heap).
func (st *MemtableStore) Read(bytes int64) bool {
	if st.crashed {
		return false
	}
	if st.cacheBytes < st.cacheTarget {
		grow := bytes
		if st.cacheBytes+grow > st.cacheTarget {
			grow = st.cacheTarget - st.cacheBytes
		}
		if err := st.heap.Alloc(grow); err != nil {
			st.crashed = true
			return false
		}
		st.cacheBytes += grow
	} else if st.cacheBytes > st.cacheTarget {
		shrink := st.cacheBytes - st.cacheTarget
		st.heap.Free(shrink)
		st.cacheBytes -= shrink
	}
	return true
}

func (st *MemtableStore) maybeFlush() {
	if st.flushing > 0 || st.active == 0 || st.MemtableBytes() < st.threshold/2 {
		return
	}
	// Freeze the active memtable and flush it in the background.
	st.flushing = st.active
	st.active = 0
	d := st.cfg.FlushFixedOverhead
	if st.cfg.FlushBytesPerSec > 0 {
		d += time.Duration(float64(st.flushing) / float64(st.cfg.FlushBytesPerSec) * float64(time.Second))
	}
	st.sim.AfterArg(d, st.flushDoneFn, 0)
}

// flushDone retires a flush. MemtableStore has no fleet Kill, so the event
// argument is unused.
//
//smartconf:hotpath
func (st *MemtableStore) flushDone(uint64) {
	if st.crashed {
		return
	}
	st.heap.Free(st.flushing)
	st.flushing = 0
	// Throttled writes land now, paying their wait as latency. The two
	// pending buffers ping-pong so the drain reuses their capacity.
	pend := st.pending
	st.pending = st.pendingScratch[:0]
	st.pendingScratch = pend
	st.pendingBytes = 0
	for _, pw := range pend {
		if st.crashed {
			return
		}
		st.apply(pw.bytes, st.sim.Now()-pw.at)
	}
	st.maybeFlush()
}

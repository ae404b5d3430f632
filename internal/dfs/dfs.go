// Package dfs simulates an HDFS-like namenode for the paper's HD4995 issue:
// the du/content-summary operation walks the namespace under the global
// namesystem lock, yielding the lock every content-summary.limit files so
// that writers can make progress.
//
// The knob trades two latencies: a large limit holds the lock long,
// blocking concurrent writers (the user complaint: "write blocked for
// long"); a small limit re-acquires the lock constantly, inflating the du
// latency itself. The configuration is conditional — it only matters while
// a du is running — and indirect: the controller steers the actual
// files-per-hold (the deputy), which is the knob except at the final
// partial chunk.
package dfs

import (
	"time"

	"smartconf/internal/metrics"
	"smartconf/internal/sim"
)

// Config fixes the namenode's cost parameters.
type Config struct {
	// PerFileCost is the traversal cost per file under the lock.
	PerFileCost time.Duration
	// ReacquireOverhead is the cost of releasing and re-taking the lock
	// between chunks (wakeups, queue churn).
	ReacquireOverhead time.Duration
	// InitialFiles is the namespace size at startup.
	InitialFiles int
}

// DefaultConfig returns the calibration used by the HD4995 experiments.
func DefaultConfig() Config {
	return Config{
		PerFileCost:       200 * time.Microsecond,
		ReacquireOverhead: 50 * time.Millisecond,
		InitialFiles:      1_000_000,
	}
}

type duRequest struct {
	submitted time.Duration
	done      func(latency time.Duration)
}

// NameNode is the simulated namenode.
type NameNode struct {
	sim *sim.Simulation
	cfg Config

	files int
	limit int // the knob: files traversed per lock hold

	lockHeld  bool
	duRunning bool
	lastChunk int // files processed in the most recent lock hold
	duQueue   []duRequest

	// The running du: its request, the files it has still to traverse, and
	// when the current lock hold began. releaseFn and reacquireFn are
	// release and reacquire bound once at construction: the hold's end and
	// the next acquisition are scheduled with them, where a closure per
	// chunk would allocate.
	du          duRequest
	remaining   int
	holdStart   time.Duration
	releaseFn   func(uint64)
	reacquireFn func(uint64)

	// pendingWrites holds the submit times of writes blocked on the lock;
	// each release empties it and keeps its array for the next hold.
	pendingWrites []time.Duration

	holdTimes  *metrics.Latency // lock-hold durations: the constrained metric
	blockTimes *metrics.Latency // actual writer waits (diagnostics)
	duLatency  *metrics.Latency // the trade-off metric

	writesDone metrics.Counter
	dusDone    metrics.Counter

	// BeforeChunk, when set, runs before each lock acquisition during a du —
	// the integration point for this conditional configuration.
	BeforeChunk func()
}

// New returns a namenode with the given initial chunk limit.
func New(s *sim.Simulation, cfg Config, limit int) *NameNode {
	nn := &NameNode{
		sim:        s,
		cfg:        cfg,
		files:      cfg.InitialFiles,
		limit:      clampLimit(limit),
		holdTimes:  metrics.NewLatency(128),
		blockTimes: metrics.NewLatency(512),
		duLatency:  metrics.NewLatency(64),
	}
	nn.releaseFn = nn.release
	nn.reacquireFn = nn.reacquire
	return nn
}

func clampLimit(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// SetLimit adjusts the content-summary.limit knob.
func (nn *NameNode) SetLimit(n int) { nn.limit = clampLimit(n) }

// Limit returns the current knob value.
func (nn *NameNode) Limit() int { return nn.limit }

// SetPerFileCost changes the per-file traversal cost mid-run (fault
// injection: a plant shift — slower metadata storage, cold caches). The cost
// is read per chunk, so the change applies from the next lock acquisition.
func (nn *NameNode) SetPerFileCost(d time.Duration) {
	if d < 0 {
		d = 0
	}
	nn.cfg.PerFileCost = d
}

// LastChunkFiles returns the deputy variable: how many files the most
// recent lock hold actually traversed (equal to the limit except at a
// traversal's final partial chunk).
func (nn *NameNode) LastChunkFiles() int { return nn.lastChunk }

// Files returns the namespace size.
func (nn *NameNode) Files() int { return nn.files }

// HoldTimes tracks per-chunk lock-hold durations — the worst case bounds how
// long any writer can be blocked, so this is the constrained metric.
func (nn *NameNode) HoldTimes() *metrics.Latency { return nn.holdTimes }

// BlockTimes tracks the waits writers actually experienced.
func (nn *NameNode) BlockTimes() *metrics.Latency { return nn.blockTimes }

// DuLatency tracks end-to-end du latencies — the trade-off metric.
func (nn *NameNode) DuLatency() *metrics.Latency { return nn.duLatency }

// WritesDone returns the number of completed writes.
func (nn *NameNode) WritesDone() int64 { return nn.writesDone.Value() }

// DusDone returns the number of completed du operations.
func (nn *NameNode) DusDone() int64 { return nn.dusDone.Value() }

// Write creates one file. If the du traversal holds the lock, the write
// waits for the next release.
//
//smartconf:hotpath
func (nn *NameNode) Write() {
	if nn.lockHeld {
		nn.pendingWrites = append(nn.pendingWrites, nn.sim.Now())
		return
	}
	nn.applyWrite(0)
}

func (nn *NameNode) applyWrite(waited time.Duration) {
	nn.files++
	nn.writesDone.Inc()
	nn.blockTimes.Observe(waited)
}

// Du submits a content-summary request; done (optional) receives the
// end-to-end latency. Concurrent requests serialize FIFO.
func (nn *NameNode) Du(done func(latency time.Duration)) {
	nn.duQueue = append(nn.duQueue, duRequest{submitted: nn.sim.Now(), done: done})
	if !nn.duRunning {
		nn.startNextDu()
	}
}

func (nn *NameNode) startNextDu() {
	if len(nn.duQueue) == 0 {
		nn.duRunning = false
		return
	}
	nn.duRunning = true
	nn.du = nn.duQueue[0]
	n := copy(nn.duQueue, nn.duQueue[1:])
	nn.duQueue[n] = duRequest{}
	nn.duQueue = nn.duQueue[:n]
	nn.remaining = nn.files // snapshot: files added later are not traversed
	nn.chunk()
}

// chunk takes the lock for the running du's next chunk, or completes the du
// when no files remain.
func (nn *NameNode) chunk() {
	if nn.remaining <= 0 {
		req := nn.du
		nn.du = duRequest{}
		lat := nn.sim.Now() - req.submitted
		nn.duLatency.Observe(lat)
		nn.dusDone.Inc()
		if req.done != nil {
			req.done(lat)
		}
		nn.startNextDu()
		return
	}
	if nn.BeforeChunk != nil {
		nn.BeforeChunk()
	}
	n := nn.limit
	if n > nn.remaining {
		n = nn.remaining
	}
	nn.lockHeld = true
	nn.lastChunk = n
	nn.remaining -= n
	nn.holdStart = nn.sim.Now()
	nn.sim.AfterArg(time.Duration(n)*nn.cfg.PerFileCost, nn.releaseFn, 0)
}

// release ends a lock hold (bound once as releaseFn): writers that piled up
// behind the lock complete now, and the next chunk reacquires the lock
// after the reacquire overhead.
func (nn *NameNode) release(uint64) {
	nn.lockHeld = false
	nn.holdTimes.Observe(nn.sim.Now() - nn.holdStart)
	for _, at := range nn.pendingWrites {
		nn.applyWrite(nn.sim.Now() - at)
	}
	nn.pendingWrites = nn.pendingWrites[:0]
	nn.sim.AfterArg(nn.cfg.ReacquireOverhead, nn.reacquireFn, 0)
}

// reacquire is the scheduled next acquisition (bound once as reacquireFn).
func (nn *NameNode) reacquire(uint64) { nn.chunk() }

// Package workload generates the synthetic load that drives the substrate
// systems, mirroring the paper's benchmark drivers (Table 6):
//
//   - a YCSB-like key-value workload (read/write mix, request size, zipfian
//     key popularity, an index-cache knob, phase shifts) for the key-value
//     store and RPC-server substrates;
//   - an LLM inference workload (lognormal prompt and output token counts,
//     phase shifts, bursts) for the LLM-serving substrate;
//   - WordCount job descriptions (input size, split size, per-worker
//     parallelism) for the MapReduce substrate.
//
// Every arrival stream is Poisson: one exponential variate per gap.
//
// Generators are deterministic given a seed: two runs of an experiment with
// the same seed produce identical event streams. YCSB keys are exactly
// math/rand.Zipf's (s = 1.1, v = 1) from the same seed, drawn by a private
// sampler that skips the stdlib's Exp and Log on almost every draw
// (zipf.go).
package workload

import (
	"fmt"
	"math/rand"
	"time"
)

// Op is one key-value operation.
type Op struct {
	Write bool
	Key   uint64
	// Bytes is the payload size: the value written, or the response size for
	// a read.
	Bytes int64
}

// YCSBPhase parametrizes one phase of a YCSB-like workload, following the
// paper's notation "xW, yMB, Cz": write fraction, request size, and the
// fraction of heap the read-index cache is allowed to grow to.
type YCSBPhase struct {
	Name string
	// Duration of the phase; the last phase may be 0 (runs to experiment end).
	Duration time.Duration
	// WriteRatio is the fraction of operations that are writes, in [0,1].
	WriteRatio float64
	// RequestBytes is the mean payload per operation; actual sizes jitter
	// ±20% uniformly.
	RequestBytes int64
	// CacheRatio is the target read-cache heap fraction (CA6059's "Cz"
	// disturbance: cache growth squeezes the memtable's headroom).
	CacheRatio float64
	// OpsPerSec is the offered load (Poisson arrivals).
	OpsPerSec float64
}

func (p YCSBPhase) String() string {
	return fmt.Sprintf("%s: %.1fW, %dB, C%.1f @ %.0f ops/s",
		p.Name, p.WriteRatio, p.RequestBytes, p.CacheRatio, p.OpsPerSec)
}

// YCSB generates operations for one phase configuration.
type YCSB struct {
	rng   *rand.Rand
	zipf  zipf
	phase YCSBPhase
}

// NewYCSB returns a generator over a keyspace of keys items with zipfian
// popularity (YCSB's default skew), seeded deterministically.
func NewYCSB(seed int64, keys uint64, phase YCSBPhase) *YCSB {
	if keys == 0 {
		keys = 1
	}
	rng := rand.New(rand.NewSource(seed))
	return &YCSB{
		rng:   rng,
		zipf:  newZipf(rng, keys-1),
		phase: phase,
	}
}

// Phase returns the current phase parameters.
func (y *YCSB) Phase() YCSBPhase { return y.phase }

// SetPhase switches the generator to a new phase (workload shift).
func (y *YCSB) SetPhase(p YCSBPhase) { y.phase = p }

// NextInterarrival draws the exponential gap to the next operation.
func (y *YCSB) NextInterarrival() time.Duration {
	return interarrival(y.rng, y.phase.OpsPerSec)
}

// NextOp draws the next operation.
//
//smartconf:hotpath
func (y *YCSB) NextOp() Op {
	write := y.rng.Float64() < y.phase.WriteRatio
	jitter := 0.8 + 0.4*y.rng.Float64() // ±20%
	bytes := int64(float64(y.phase.RequestBytes) * jitter)
	if bytes < 1 {
		bytes = 1
	}
	return Op{Write: write, Key: y.zipf.next(), Bytes: bytes}
}

// PhaseAt selects the active phase from a schedule at virtual time now: each
// phase runs for its Duration; a zero-duration phase is terminal. The boolean
// reports whether the schedule is exhausted (now beyond all finite phases
// and no terminal phase).
func PhaseAt(phases []YCSBPhase, now time.Duration) (YCSBPhase, bool) {
	var elapsed time.Duration
	for _, p := range phases {
		if p.Duration == 0 || now < elapsed+p.Duration {
			return p, true
		}
		elapsed += p.Duration
	}
	if len(phases) == 0 {
		return YCSBPhase{}, false
	}
	return phases[len(phases)-1], false
}

// Package declog is the production decision log: a fixed-capacity,
// zero-allocation ring buffer of controller decisions, cheap enough to stay
// enabled under full load, plus a deterministic JSON envelope codec so a
// logged run can be shipped to the offline analyzer (cmd/smartconf-replay)
// and re-executed with perturbed decisions.
//
// Every internal/core controller (direct, indirect, adaptive) appends one
// Record per Update, and internal/cluster coordinators append their layered
// bound decisions. A record is a value-typed Record copied into a
// pre-allocated ring under the log's mutex — no heap allocation on any path
// (benchgate-gated at 0 allocs/op, and the whole-run gate keeps the
// steady-state request windows allocation-free with logging enabled).
//
// Each mutating operation has two forms. The methods Append and BumpEpoch
// take the mutex themselves; the package functions AppendLocked and
// BumpEpochLocked run inside a critical section the caller already holds on
// Mutex(l). The public smartconf package uses the held forms: a
// configuration built WithDecisionLog locks the log's mutex in place of its
// own, so a decision and its record are one critical section, and
// configurations sharing a log serialize whole decisions, not only appends.
// Coordinators, the chaos loop and any producer that holds no configuration
// lock use the locking forms. The held forms are functions, not methods, so
// they stay off the method set that the smartconf package exports as
// DecisionLog: an outside caller cannot take the mutex and deadlock a
// configuration sharing the log.
//
// The package is a leaf: core, cluster, chaos and the public smartconf
// package all import it, so it depends only on the standard library.
package declog

import "sync"

// ClampReason classifies what happened between a controller's raw Eq. 2
// output and the value it actually applied.
type ClampReason uint8

const (
	// ClampNone: the raw output was inside the actuator range and applied
	// unchanged.
	ClampNone ClampReason = iota
	// ClampMin: the raw output fell below the actuator's lower bound.
	ClampMin
	// ClampMax: the raw output exceeded the actuator's upper bound.
	ClampMax
	// ClampNonFinite: the raw output was not a finite number (only reachable
	// with an unbounded actuator); the controller saturated in the step's
	// direction instead of poisoning the knob.
	ClampNonFinite
	// ClampLayered: a cluster coordinator decision where the other
	// controller's bound was the binding one (the soft-goal bound undercut
	// the hard guard, or vice versa) — the applied value is not this
	// controller's own output.
	ClampLayered

	numClampReasons
)

func (c ClampReason) String() string {
	switch c {
	case ClampNone:
		return "none"
	case ClampMin:
		return "min"
	case ClampMax:
		return "max"
	case ClampNonFinite:
		return "non-finite"
	case ClampLayered:
		return "layered"
	}
	return "invalid"
}

// Source identifies one decision producer (a controller or a coordinator
// lane) within a Log, assigned by Register. The value indexes the envelope's
// Sources name table.
type Source uint16

// Record is one logged decision. Field order is fixed by the struct
// declaration — the envelope codec relies on it for byte-deterministic
// encoding, like the disk run cache.
type Record struct {
	// Source indexes the log's registered source names.
	Source Source `json:"src"`
	// Period is the producer's decision index, 1-based, counted from the
	// producer's own construction. A controller rebuilt after a crash
	// restarts at 1 — the Epoch tells the generations apart.
	Period uint32 `json:"period"`
	// Epoch is the active goal epoch, stamped by Append: it advances on
	// run-time goal changes and on crash resynthesis.
	Epoch uint32 `json:"epoch"`
	// Clamp classifies the raw→applied transition.
	Clamp ClampReason `json:"clamp"`
	// Sensed is the measurement the decision consumed.
	Sensed float64 `json:"sensed"`
	// Err is the setpoint error (virtual goal − sensed).
	Err float64 `json:"err"`
	// Pole is the pole the update actually used (0 in the danger region).
	Pole float64 `json:"pole"`
	// Raw is the unclamped Eq. 2 output.
	Raw float64 `json:"raw"`
	// Applied is the value that reached the actuator.
	Applied float64 `json:"applied"`
}

// Log is a fixed-capacity ring of Records shared by every decision producer
// of one run. All methods are safe for concurrent use; Append and
// AppendLocked are the hot path and allocate nothing.
type Log struct {
	mu    sync.Mutex
	buf   []Record // guardedby: mu
	start int      // guardedby: mu — index of the oldest record
	n     int      // guardedby: mu — number of live records
	total uint64   // guardedby: mu — appends ever, including overwritten
	epoch uint32   // guardedby: mu — current goal epoch
	names []string // guardedby: mu — registered source names, index = Source
}

// New returns a Log holding the most recent capacity records. Capacities
// below 1 are raised to 1.
func New(capacity int) *Log {
	if capacity < 1 {
		capacity = 1
	}
	return &Log{buf: make([]Record, capacity)}
}

// Register assigns (or looks up) the Source id for a named producer.
// Registration is idempotent by name, so a controller resynthesized after a
// crash keeps its pre-crash source id. Cold path: called at construction
// time, never per decision.
func (l *Log) Register(name string) Source {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, n := range l.names {
		if n == name {
			return Source(i)
		}
	}
	l.names = append(l.names, name)
	return Source(len(l.names) - 1)
}

// Sources returns a copy of the registered source names, index = Source.
func (l *Log) Sources() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.names) == 0 {
		return nil
	}
	out := make([]string, len(l.names))
	copy(out, l.names)
	return out
}

// Mutex returns the mutex that guards l. Holding it is the contract of
// AppendLocked and BumpEpochLocked, the only calls on l a holder may make.
func Mutex(l *Log) *sync.Mutex { return &l.mu }

// Append records one decision, stamping the current goal epoch. When the
// ring is full the oldest record is overwritten. Zero allocations.
//
//smartconf:hotpath
func (l *Log) Append(r Record) {
	l.mu.Lock()
	l.appendLocked(r)
	l.mu.Unlock()
}

// AppendLocked is Append for a caller that already holds Mutex(l).
//
//smartconf:hotpath
func AppendLocked(l *Log, r Record) { l.appendLocked(r) }

//smartconf:hotpath
func (l *Log) appendLocked(r Record) {
	r.Epoch = l.epoch
	i := l.start + l.n
	if i >= len(l.buf) {
		i -= len(l.buf)
	}
	l.buf[i] = r
	if l.n < len(l.buf) {
		l.n++
	} else {
		l.start++
		if l.start == len(l.buf) {
			l.start = 0
		}
	}
	l.total++
}

// BumpEpoch advances the goal epoch: subsequent records belong to a new
// decision regime (a run-time goal change, a crash resynthesis).
func (l *Log) BumpEpoch() {
	l.mu.Lock()
	l.bumpEpochLocked()
	l.mu.Unlock()
}

// BumpEpochLocked is BumpEpoch for a caller that already holds Mutex(l).
func BumpEpochLocked(l *Log) { l.bumpEpochLocked() }

func (l *Log) bumpEpochLocked() { l.epoch++ }

// Epoch returns the current goal epoch.
func (l *Log) Epoch() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Len returns the number of live records (≤ capacity).
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Cap returns the ring capacity.
func (l *Log) Cap() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Total returns how many records were ever appended, including those the
// ring has since overwritten.
func (l *Log) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot returns the live records oldest-first. Cold path: allocates a
// fresh slice each call so exports never alias the ring.
func (l *Log) Snapshot() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return nil
	}
	out := make([]Record, l.n)
	head := copy(out, l.buf[l.start:min(l.start+l.n, len(l.buf))])
	copy(out[head:], l.buf[:l.n-head])
	return out
}

// Reset drops every record and restarts the epoch and total counters; source
// registrations survive (the producers still exist).
func (l *Log) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.start, l.n, l.total, l.epoch = 0, 0, 0, 0
}

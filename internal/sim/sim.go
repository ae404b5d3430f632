// Package sim is a deterministic discrete-event simulator.
//
// The paper evaluates SmartConf on a physical testbed over hundreds of
// seconds of wall-clock time. This repository reproduces those experiments
// on virtual time: substrates (RPC server, key-value store, namenode,
// MapReduce cluster) are written as event-driven processes against a
// Simulation, so a 700-second experiment executes in milliseconds and two
// runs with the same seed are bit-identical.
//
// Events scheduled for the same instant fire in scheduling order (a strict
// total order over (time, sequence)), which keeps every experiment
// reproducible regardless of map iteration or goroutine scheduling — the
// simulator is single-goroutine by design.
//
// The event queue is a value-typed 4-ary implicit heap: events are stored
// inline in a slice (no per-At allocation, no interface boxing as with
// container/heap), and the wider fan-out halves the sift-down depth for the
// queue sizes the substrates produce.
//
// Two raw-speed facilities serve 10M-request runs (see DESIGN.md):
//
//   - AtArg/AfterArg schedule a monomorphic event — a func(uint64) plus its
//     argument, both stored inline in the event — so the per-request
//     schedule→fire cycle allocates no closure. Substrates bind a method
//     value once at construction and pass the stored field; creating the
//     method value at the call site would allocate.
//   - A same-instant batch lane: an event scheduled for exactly the current
//     instant (t == Now) bypasses the heap into a FIFO ring and is popped in
//     O(1) with no sifting. The (time, seq) order is preserved exactly: any
//     heap event with at == Now was necessarily scheduled at an earlier
//     instant (scheduling into the heap requires t > Now), hence carries a
//     smaller sequence number than every ring event, so draining heap
//     events at Now before the ring replays the heap-only order bit for bit.
package sim

import (
	"fmt"
	"time"
)

// event is a scheduled callback, stored by value in the heap slice and the
// same-instant ring. Exactly one of fn (closure form, At) or argFn
// (monomorphic form, AtArg) is set.
type event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	argFn func(uint64)
	arg   uint64
}

// fire runs the event's callback.
func (e *event) fire() {
	if e.argFn != nil {
		e.argFn(e.arg)
		return
	}
	e.fn()
}

// before is the strict total order (time, then scheduling sequence).
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// defaultQueueCapacity is the initial event-queue capacity used by New.
// Substrates that know their steady-state queue depth can pass a tighter or
// larger hint via NewWithCapacity.
const defaultQueueCapacity = 256

// Simulation owns a virtual clock and an event queue.
// It is not safe for concurrent use: all substrate code runs inside event
// callbacks on a single goroutine.
type Simulation struct {
	now     time.Duration
	queue   []event // 4-ary min-heap ordered by (at, seq)
	seq     uint64
	stopped bool
	events  uint64 // total events executed (diagnostics / benchmarks)

	// Same-instant batch lane: events scheduled at exactly now, drained FIFO
	// after the heap's events for the same instant (see the package comment
	// for the ordering argument). ring is a circular buffer.
	ring     []event
	ringHead int
	ringLen  int

	maxPending int // high-watermark of Pending() (diagnostics / pre-sizing)
}

// New returns an empty simulation at time zero with a default queue capacity.
func New() *Simulation {
	return NewWithCapacity(defaultQueueCapacity)
}

// NewWithCapacity returns an empty simulation whose event queue is pre-sized
// for roughly hint simultaneously pending events, avoiding growth
// reallocations on the scheduling hot path.
func NewWithCapacity(hint int) *Simulation {
	if hint < 0 {
		hint = 0
	}
	return &Simulation{queue: make([]event, 0, hint)}
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.now }

// Events returns the number of events executed so far.
func (s *Simulation) Events() uint64 { return s.events }

// At schedules fn at absolute virtual time t. Scheduling in the past
// (t < Now) panics: it would silently reorder causality.
func (s *Simulation) At(t time.Duration, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	s.schedule(event{at: t, fn: fn})
}

// After schedules fn d after the current virtual time. Negative d panics.
func (s *Simulation) After(d time.Duration, fn func()) {
	s.At(s.now+d, fn)
}

// AtArg schedules fn(arg) at absolute virtual time t. This is the
// monomorphic form of At for zero-allocation request paths: the callback and
// its argument are stored inline in the event, so scheduling captures no
// closure. Pass a function value stored once (e.g. a struct field bound at
// construction) — writing sv.sim.AtArg(t, sv.method, arg) creates a new
// method value per call, which allocates.
func (s *Simulation) AtArg(t time.Duration, fn func(uint64), arg uint64) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	s.schedule(event{at: t, argFn: fn, arg: arg})
}

// AfterArg schedules fn(arg) d after the current virtual time.
func (s *Simulation) AfterArg(d time.Duration, fn func(uint64), arg uint64) {
	s.AtArg(s.now+d, fn, arg)
}

// schedule routes an event to the heap (future instants) or the same-instant
// ring (t == now, the batch lane). Scheduling in the past panics.
func (s *Simulation) schedule(e event) {
	if e.at < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", e.at, s.now))
	}
	s.seq++
	e.seq = s.seq
	if e.at == s.now {
		s.ringPush(e)
	} else {
		s.queue = append(s.queue, e)
		s.siftUp(len(s.queue) - 1)
	}
	if p := len(s.queue) + s.ringLen; p > s.maxPending {
		s.maxPending = p
	}
}

// Every schedules fn after the delay start (relative to now, like After) and
// then every interval while fn returns true. interval must be positive.
func (s *Simulation) Every(start, interval time.Duration, fn func() bool) {
	if interval <= 0 {
		panic("sim: Every interval must be positive")
	}
	var tick func()
	next := s.now + start
	tick = func() {
		if s.stopped {
			return
		}
		if fn() {
			next += interval
			s.At(next, tick)
		}
	}
	s.At(next, tick)
}

// Stop halts the run loop after the current event; pending events remain
// queued but are not executed.
func (s *Simulation) Stop() { s.stopped = true }

// Stopped reports whether Stop was called.
func (s *Simulation) Stopped() bool { return s.stopped }

// Run executes events until the queue drains or Stop is called.
func (s *Simulation) Run() {
	for (len(s.queue) > 0 || s.ringLen > 0) && !s.stopped {
		s.step()
	}
}

// Step fires the next event, if one is pending and Stop has not been called,
// and reports whether it fired one: Run one event at a time, for harnesses
// that check state between events.
func (s *Simulation) Step() bool {
	if s.stopped || len(s.queue) == 0 && s.ringLen == 0 {
		return false
	}
	s.step()
	return true
}

// RunUntil executes all events scheduled at or before deadline (unless Stop
// fires first) and then advances the clock to the deadline.
func (s *Simulation) RunUntil(deadline time.Duration) {
	for !s.stopped {
		if s.ringLen > 0 && s.now <= deadline {
			// Ring events are all due at now; run them unless the clock has
			// already passed the deadline.
			if len(s.queue) > 0 && s.queue[0].at == s.now {
				s.step() // heap events at now precede the ring (smaller seq)
				continue
			}
			s.step()
			continue
		}
		if len(s.queue) == 0 || s.queue[0].at > deadline {
			break
		}
		s.step()
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// Pending reports the number of queued events.
func (s *Simulation) Pending() int { return len(s.queue) + s.ringLen }

// MaxPending reports the high-watermark of Pending over the simulation's
// lifetime — the measured steady-state queue depth that NewWithCapacity
// hints should be sized to (the -scale artifact reports it per substrate).
func (s *Simulation) MaxPending() int { return s.maxPending }

// step pops and fires the next event in (time, seq) order: heap events due
// at the current instant precede the same-instant ring (their sequence
// numbers are necessarily smaller — see the package comment), and the ring
// drains FIFO before the clock may advance to a future heap event.
func (s *Simulation) step() {
	if len(s.queue) > 0 && s.queue[0].at == s.now {
		e := s.queue[0]
		s.pop()
		s.events++
		e.fire()
		return
	}
	if s.ringLen > 0 {
		e := s.ringPop()
		s.events++
		e.fire()
		return
	}
	e := s.queue[0]
	s.pop()
	s.now = e.at
	s.events++
	e.fire()
}

// ringPush appends to the same-instant FIFO, growing the circular buffer by
// doubling when full.
func (s *Simulation) ringPush(e event) {
	if s.ringLen == len(s.ring) {
		grown := make([]event, max(4, 2*len(s.ring)))
		for i := 0; i < s.ringLen; i++ {
			grown[i] = s.ring[(s.ringHead+i)%len(s.ring)]
		}
		s.ring = grown
		s.ringHead = 0
	}
	s.ring[(s.ringHead+s.ringLen)%len(s.ring)] = e
	s.ringLen++
}

// ringPop removes the FIFO head in O(1) — the batch-dispatch path: no
// sifting for same-instant cascades.
func (s *Simulation) ringPop() event {
	e := s.ring[s.ringHead]
	s.ring[s.ringHead] = event{} // release the callbacks for GC
	s.ringHead = (s.ringHead + 1) % len(s.ring)
	s.ringLen--
	return e
}

// pop removes the minimum event from the heap.
func (s *Simulation) pop() {
	n := len(s.queue) - 1
	s.queue[0] = s.queue[n]
	s.queue[n] = event{} // release the callback for GC
	s.queue = s.queue[:n]
	if n > 1 {
		s.siftDown(0)
	}
}

// siftUp restores the heap property after appending at index i.
// Parent of i in a 4-ary heap is (i-1)/4.
func (s *Simulation) siftUp(i int) {
	e := s.queue[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(s.queue[p]) {
			break
		}
		s.queue[i] = s.queue[p]
		i = p
	}
	s.queue[i] = e
}

// siftDown restores the heap property from index i toward the leaves.
// Children of i are 4i+1 … 4i+4.
func (s *Simulation) siftDown(i int) {
	n := len(s.queue)
	e := s.queue[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s.queue[j].before(s.queue[min]) {
				min = j
			}
		}
		if !s.queue[min].before(e) {
			break
		}
		s.queue[i] = s.queue[min]
		i = min
	}
	s.queue[i] = e
}

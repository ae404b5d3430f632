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
// simulator is single-goroutine by design. An event scheduled for the
// current instant is queued like any other: its sequence number, larger than
// every queued event's, puts it after the events already due now.
//
// The event queue holds 16-byte keys with no pointers: each element is its
// instant plus seq<<24 | slot, where slot indexes a payload table holding
// the callback, its argument and any series state. Moving a key pays no GC
// write barrier even while the collector is marking, and payloads never
// move once written; a released payload is zeroed, so the GC can drop its
// callbacks, and links the table's free list. The packing bounds a
// simulation to 2^24 pending queue elements and 2^40 scheduled events: past
// either, scheduling panics, as scheduling in the past does.
//
// The keys live in two places. A sorted buffer of up to 16 keys, latest
// first, holds the earliest pending events, and a 4-ary implicit heap holds
// the rest; every buffered key orders before every heap key, and the buffer
// is empty only when the heap is. The next event is the buffer's last
// entry, so firing it is a decrement. An event that orders before the
// heap's minimum joins the buffer, scanning from its earliest end; a full
// buffer spills its latest key into the heap, and an event later than a
// full buffer's latest goes to the heap itself. An emptied buffer refills
// with the heap's minimum. In a control loop the event just scheduled is
// most often the next to fire, and few others are pending, so most events
// never reach the heap: they are scheduled into the buffer and fire from
// it. A deep queue keeps the heap's costs. A heap pop deletes bottom-up:
// the hole at the root walks to a leaf along the smaller child without
// comparing the moved last element, which then sifts up from there, where
// it usually belongs. A full group of four children picks its minimum by a
// branch-free tournament (lessBit), since which child wins is a coin toss
// to the branch predictor on a deep queue.
//
// Two raw-speed facilities serve 10M-request runs and the figure workloads
// (see DESIGN.md):
//
//   - AtArg/AfterArg schedule a monomorphic event — a func(uint64) plus its
//     argument — so the per-request schedule→fire cycle allocates no
//     closure. Substrates bind a method value once at construction and pass
//     the stored field; creating the method value at the call site would
//     allocate.
//   - AfterArgSeries schedules a burst — fn(arg+i) at Now + i·every for
//     i < n — as the events, order and sequence numbers of n consecutive
//     AfterArg calls, in one queue element and payload. The element starts
//     as element 0, due now, and reserves all n sequence numbers. Each time
//     it fires it is queued again as its successor (at += every, seq += 1),
//     by the same rule as a new event. Element i+1 orders strictly after
//     element i, so it cannot be the queue's minimum before element i has
//     fired: keeping only the earliest unfired element queued leaves every
//     minimum, and with it the firing order, exactly that of the n-event
//     queue.
package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// A queue element's key packs the event's sequence number above the index
// of its payload.
const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	maxSeq   = 1<<(64-slotBits) - 1
)

// entry is one queue element. It holds no pointers, so moving it costs no
// write barrier.
type entry struct {
	at  time.Duration
	key uint64 // seq<<slotBits | slot
}

// before is the strict total order (time, then scheduling sequence). The
// slot bits never decide it: sequence numbers are unique.
func (e entry) before(o entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.key < o.key
}

// lessBit is before as a number, 1 when a orders before b and 0 otherwise,
// computed without a branch: it is the borrow out of a 128-bit unsigned
// subtraction of the (at, key) pairs, with at's sign bit flipped so that
// unsigned order agrees with signed order for every instant.
func lessBit(a, b entry) int {
	_, borrow := bits.Sub64(a.key, b.key, 0)
	_, borrow = bits.Sub64(uint64(a.at)^1<<63, uint64(b.at)^1<<63, borrow)
	return int(borrow)
}

// call is a callback ready to fire. Exactly one of fn (closure form, At) or
// argFn (monomorphic form, AtArg) is set.
type call struct {
	fn    func()
	argFn func(uint64)
	arg   uint64
}

// fire runs the callback.
func (c *call) fire() {
	if c.argFn != nil {
		c.argFn(c.arg)
		return
	}
	c.fn()
}

// payload is what a queue element fires: a single event, or the element of
// a series now queued, with left more hidden behind it, every apart and
// their arguments counting up from arg. A released payload is zero except
// arg, which links the free list (next slot + 1; 0 ends it).
type payload struct {
	call
	every time.Duration
	left  int
}

// bufCap is the number of earliest pending events held in front of the
// heap: room for a per-admission loop's nine pending events and for the
// figure workloads' average of about nine per pop (DESIGN.md §5f). Eight
// and thirty-two entries measured no better.
const bufCap = 16

// defaultQueueCapacity is the initial event-queue capacity used by New.
// Substrates that know their steady-state queue depth can pass a tighter or
// larger hint via NewWithCapacity.
const defaultQueueCapacity = 256

// Simulation owns a virtual clock and an event queue.
// It is not safe for concurrent use: all substrate code runs inside event
// callbacks on a single goroutine.
type Simulation struct {
	now time.Duration
	// buf holds the earliest pending queued events, latest first, so the next
	// to fire is buf[nbuf-1]. Every buffered event orders before every
	// element of queue, and nbuf is 0 only when queue is empty too.
	buf      [bufCap]entry
	nbuf     int
	queue    []entry   // 4-ary min-heap ordered by (at, seq)
	payloads []payload // indexed by the slot bits of a queue entry's key
	free     uint64    // first released payload, slot + 1; 0: none
	hidden   int       // series elements not yet queued
	seq      uint64
	stopped  bool
	events   uint64 // total events executed (diagnostics / benchmarks)

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
	return &Simulation{queue: make([]entry, 0, hint), payloads: make([]payload, 0, hint)}
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
	s.schedule(t, call{fn: fn})
}

// After schedules fn d after the current virtual time. Negative d panics.
func (s *Simulation) After(d time.Duration, fn func()) {
	s.At(s.now+d, fn)
}

// AtArg schedules fn(arg) at absolute virtual time t. This is the
// monomorphic form of At for zero-allocation request paths: the callback and
// its argument are stored by value, so scheduling captures no closure. Pass
// a function value stored once (e.g. a struct field bound at construction)
// — writing sv.sim.AtArg(t, sv.method, arg) creates a new method value per
// call, which allocates.
func (s *Simulation) AtArg(t time.Duration, fn func(uint64), arg uint64) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	s.schedule(t, call{argFn: fn, arg: arg})
}

// AfterArg schedules fn(arg) d after the current virtual time.
func (s *Simulation) AfterArg(d time.Duration, fn func(uint64), arg uint64) {
	s.AtArg(s.now+d, fn, arg)
}

// AfterArgSeries schedules fn(arg+i) at Now + i·every for each i < n: the
// events, order and sequence numbers of n consecutive AfterArg calls, held
// as one queue element that is queued again as its successor each time it
// fires (see the package comment). For every ≤ 0, or n < 2, where sharing
// saves nothing, it is that AfterArg loop.
func (s *Simulation) AfterArgSeries(every time.Duration, n int, fn func(uint64), arg uint64) {
	if every <= 0 || n < 2 {
		for i := 0; i < n; i++ {
			s.AfterArg(time.Duration(i)*every, fn, arg+uint64(i))
		}
		return
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	seq := s.reserve(uint64(n)) // element i takes seq+i
	s.hidden += n - 1
	p := s.push(s.now, seq)
	p.call = call{argFn: fn, arg: arg}
	p.every, p.left = every, n-1
	s.notePending()
}

// schedule queues an event. Scheduling in the past panics.
func (s *Simulation) schedule(t time.Duration, c call) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.push(t, s.reserve(1)).call = c
	s.notePending()
}

// reserve claims the next n sequence numbers and returns the first.
func (s *Simulation) reserve(n uint64) uint64 {
	if s.seq+n > maxSeq {
		panic("sim: more than 2^40 events scheduled")
	}
	first := s.seq + 1
	s.seq += n
	return first
}

// push queues an element that fires at t with sequence number seq and
// returns its payload for the caller to fill in, field by field: a released
// payload if there is one, zero except arg, or a fresh zero one. Writing the
// fields in place spares copying a whole payload into the table, which costs
// a bulk write barrier while the collector is marking.
func (s *Simulation) push(t time.Duration, seq uint64) *payload {
	var slot uint64
	if s.free != 0 {
		slot = s.free - 1
		s.free = s.payloads[slot].arg
	} else {
		slot = uint64(len(s.payloads))
		if slot > slotMask {
			panic("sim: more than 2^24 events pending in the queue")
		}
		s.payloads = append(s.payloads, payload{})
	}
	s.insert(entry{at: t, key: seq<<slotBits | slot})
	return &s.payloads[slot]
}

// insert queues e. An event that orders before the heap's minimum joins the
// buffer, scanning from its earliest end, where most land; a full buffer
// spills its latest event into the heap to make room, unless e is later
// than that event, in which case e goes to the heap itself.
func (s *Simulation) insert(e entry) {
	if len(s.queue) > 0 && !e.before(s.queue[0]) {
		s.heapPush(e)
		return
	}
	n := s.nbuf
	if n == bufCap {
		if s.buf[0].before(e) {
			s.heapPush(e)
			return
		}
		s.heapPush(s.buf[0])
		n--
		copy(s.buf[:n], s.buf[1:])
	}
	i := n
	for ; i > 0 && s.buf[i-1].before(e); i-- {
		s.buf[i] = s.buf[i-1]
	}
	s.buf[i] = e
	s.nbuf = n + 1
}

// heapPush adds e to the heap.
func (s *Simulation) heapPush(e entry) {
	s.queue = append(s.queue, e)
	s.siftUp(len(s.queue) - 1)
}

// refill moves the heap's minimum into the empty buffer. It is kept out of
// line, off the path of an event fired from a buffer that holds others.
//
//go:noinline
func (s *Simulation) refill() {
	s.buf[0] = s.queue[0]
	s.nbuf = 1
	s.pop()
}

// notePending raises the MaxPending watermark to the current depth.
func (s *Simulation) notePending() {
	if p := s.Pending(); p > s.maxPending {
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
	for s.nbuf > 0 && !s.stopped {
		s.step()
	}
}

// Step fires the next event, if one is pending and Stop has not been called,
// and reports whether it fired one: Run one event at a time, for harnesses
// that check state between events.
func (s *Simulation) Step() bool {
	if s.stopped || s.nbuf == 0 {
		return false
	}
	s.step()
	return true
}

// RunUntil executes all events scheduled at or before deadline (unless Stop
// fires first) and then advances the clock to the deadline.
func (s *Simulation) RunUntil(deadline time.Duration) {
	for !s.stopped && s.nbuf > 0 && s.buf[s.nbuf-1].at <= deadline {
		s.step()
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// Pending reports the number of queued events, counting every series
// element not yet fired.
func (s *Simulation) Pending() int { return s.nbuf + len(s.queue) + s.hidden }

// MaxPending reports the high-watermark of Pending over the simulation's
// lifetime — the measured steady-state queue depth that NewWithCapacity
// hints should be sized to (the -scale artifact reports it per substrate).
func (s *Simulation) MaxPending() int { return s.maxPending }

// step fires the earliest queued event, the buffer's last entry; the buffer
// must not be empty. A series element with more hidden behind it gives way
// to the next one, queued by insert's rule; any other element releases its
// payload. An emptied buffer refills from the heap before the callback runs.
func (s *Simulation) step() {
	n := s.nbuf - 1
	e := s.buf[n]
	s.nbuf = n
	s.now = e.at
	slot := e.key & slotMask
	p := &s.payloads[slot]
	c := p.call
	if p.left > 0 {
		p.left--
		p.arg++
		s.hidden--
		s.insert(entry{at: e.at + p.every, key: e.key + 1<<slotBits})
	} else {
		// Release: left is already 0, so this zeroes all but arg.
		p.fn, p.argFn, p.arg, p.every = nil, nil, s.free, 0
		s.free = slot + 1
	}
	if s.nbuf == 0 && len(s.queue) > 0 {
		s.refill()
	}
	s.events++
	c.fire()
}

// pop removes the minimum element from the heap bottom-up: the hole left
// at the root walks down to a leaf along the smaller child, comparing
// children only, and the last element, which usually belongs near the
// bottom, then sifts up from the hole.
func (s *Simulation) pop() {
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue = s.queue[:n]
	if n == 0 {
		return
	}
	i := 0
	for c := 1; c < n; c = i<<2 + 1 {
		m := s.minChild(c, n)
		s.queue[i] = s.queue[m]
		i = m
	}
	s.queue[i] = last
	s.siftUp(i)
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

// minChild returns the index of the least of the children c … min(c+4, n)−1.
// A full group of four plays a tournament, (c, c+1) and (c+2, c+3) and then
// the two winners, and selects each winner's index arithmetically, so the
// unpredictable comparisons cost no branch mispredicts.
func (s *Simulation) minChild(c, n int) int {
	if c+4 <= n {
		q := s.queue[c : c+4 : c+4]
		a := lessBit(q[1], q[0])
		b := 2 + lessBit(q[3], q[2])
		return c + (a ^ (a^b)&-lessBit(q[b], q[a]))
	}
	m := c
	for j := c + 1; j < n; j++ {
		if s.queue[j].before(s.queue[m]) {
			m = j
		}
	}
	return m
}

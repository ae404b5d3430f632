package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// refSim is the plain model the simulator is checked against: every event,
// each element of a series included, is its own entry in a container/heap
// ordered by (time, seq). It has no sorted buffer, no packed keys, no
// payload table and no shared series element, so its firing order is the
// (time, seq) rule by construction.
type refSim struct {
	now        time.Duration
	queue      refQueue
	seq        uint64
	stopped    bool
	events     uint64
	maxPending int
}

type refEvent struct {
	at    time.Duration
	seq   uint64
	fn    func()
	argFn func(uint64)
	arg   uint64
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	e := (*q)[len(*q)-1]
	*q = (*q)[:len(*q)-1]
	return e
}

func (r *refSim) Now() time.Duration { return r.now }
func (r *refSim) Events() uint64     { return r.events }
func (r *refSim) Pending() int       { return len(r.queue) }
func (r *refSim) MaxPending() int    { return r.maxPending }
func (r *refSim) Stop()              { r.stopped = true }

func (r *refSim) push(e refEvent) {
	if e.at < r.now {
		panic(fmt.Sprintf("ref: scheduling at %v before now %v", e.at, r.now))
	}
	r.seq++
	e.seq = r.seq
	heap.Push(&r.queue, e)
	r.maxPending = max(r.maxPending, len(r.queue))
}

func (r *refSim) At(t time.Duration, fn func()) { r.push(refEvent{at: t, fn: fn}) }

func (r *refSim) AtArg(t time.Duration, fn func(uint64), arg uint64) {
	r.push(refEvent{at: t, argFn: fn, arg: arg})
}

// AfterArgSeries is n separate events, one AfterArg each.
func (r *refSim) AfterArgSeries(every time.Duration, n int, fn func(uint64), arg uint64) {
	for i := 0; i < n; i++ {
		r.AtArg(r.now+time.Duration(i)*every, fn, arg+uint64(i))
	}
}

// Every is Simulation.Every's closure loop over the model's At.
func (r *refSim) Every(start, interval time.Duration, fn func() bool) {
	var tick func()
	next := r.now + start
	tick = func() {
		if r.stopped {
			return
		}
		if fn() {
			next += interval
			r.At(next, tick)
		}
	}
	r.At(next, tick)
}

// Step pops and fires the (time, seq) minimum.
func (r *refSim) Step() bool {
	if r.stopped || len(r.queue) == 0 {
		return false
	}
	e := heap.Pop(&r.queue).(refEvent)
	r.now = e.at
	r.events++
	if e.argFn != nil {
		e.argFn(e.arg)
	} else {
		e.fn()
	}
	return true
}

// RunUntil fires every event due at or before deadline, then parks the
// clock there.
func (r *refSim) RunUntil(deadline time.Duration) {
	for !r.stopped && len(r.queue) > 0 && r.queue[0].at <= deadline {
		r.Step()
	}
	if !r.stopped && r.now < deadline {
		r.now = deadline
	}
}

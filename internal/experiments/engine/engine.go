// Package engine is the parallel experiment run engine behind the harness.
//
// Every artifact the harness produces — Figure 5's static-grid sweeps, the
// MR2820 co-tenant seed race, the ablation grids, the robustness sweep, the
// chaos and fleet matrices, the LLM-KV extension — is a set of independent,
// deterministic discrete-event simulations. Map shares those runs among the
// calling goroutine and up to workers−1 helper goroutines, each pulling the
// next job from one counter, so a lane that finishes a short run picks up
// the next one instead of idling behind a long one. Results reassemble in
// index order, so parallelism is a pure wall-clock win: because each
// simulation is a pure function of its inputs (fixed seeds, virtual time, no
// shared mutable state between runs), the rendered artifacts are
// byte-identical to a sequential execution at any worker count.
//
// The second half of the engine is a process-wide memoized run cache
// (memo.go): deterministic runs are keyed by (scenario, policy, seed,
// schedule) and never simulated twice, no matter how many artifacts ask for
// them.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the pool bound; inFlight counts the helper goroutines currently
// running Map jobs (the calling goroutine of every Map is an implicit worker
// on top of this, so the helper budget is workers-1 tokens).
var (
	workers  atomic.Int64
	inFlight atomic.Int64
)

func init() {
	workers.Store(int64(runtime.GOMAXPROCS(0)))
}

// SetWorkers bounds how many runs may execute concurrently, process-wide.
// n ≤ 1 makes every Map strictly sequential on the calling goroutine.
// It returns the previous bound so callers (tests, the bench -parallel flag)
// can restore it.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(workers.Swap(int64(n)))
}

// Workers reports the current pool bound.
func Workers() int { return int(workers.Load()) }

// tryAcquire claims one of the workers-1 helper tokens without blocking.
func tryAcquire() bool {
	limit := workers.Load() - 1
	for {
		cur := inFlight.Load()
		if cur >= limit {
			return false
		}
		if inFlight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func release() { inFlight.Add(-1) }

// Map runs fn(0) … fn(n-1) on the worker pool and returns the results in
// index order, regardless of completion order.
//
// Scheduling is work sharing: the calling goroutine and up to
// min(workers-1, n-1) helper goroutines pull the next index from one shared
// counter until it passes n. At every job boundary a participant that sees
// an unclaimed job tries to take a free token and start another helper, so
// a token freed while the caller is inside a long job is put to work at once
// rather than when that job returns. A helper holds its token until the
// counter passes n.
//
// Nested Map calls (a scenario fanning out its profiling sweep inside a
// Figure 5 fan-out) are deadlock-free by construction: a participant only
// ever tries to take a token, never waits for one, so an inner Map that
// finds none runs all of its jobs on its own goroutine. Because helpers keep
// their tokens until their Map runs out of jobs, an inner Map gets a token
// only once an outer helper has exited — while every lane is busy with outer
// jobs, the outer jobs keep the lanes.
//
// Determinism does not depend on the schedule: slot i of the result is
// written only by job i, and the run cache's single-flight Memo executes
// each key once and counts every other call as a hit, so the results and
// the executed/hit counters are the same whichever lane reaches a job or a
// key first.
//
// A panic in any job stops further pulls; Map waits for the jobs already
// running, then re-raises the first panic on the calling goroutine, as it
// would be raised sequentially. Map returns (or panics) only after every
// helper has exited and released its token.
func Map[T any](n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	if n == 1 || Workers() <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	m := &mapRun[T]{fn: fn, out: out, helperCap: int64(min(Workers(), n) - 1)}
	m.work()
	m.wg.Wait()
	if m.panicVal != nil {
		panic(m.panicVal)
	}
	return out
}

// mapRun is one Map call's shared state: the job counter every participant
// pulls from, the helper count, and the first panic.
type mapRun[T any] struct {
	fn  func(i int) T
	out []T

	next      atomic.Int64 // next unclaimed index; n or more once done
	helpers   atomic.Int64 // helpers started, at most helperCap
	helperCap int64
	wg        sync.WaitGroup

	panicMu  sync.Mutex
	panicVal any
}

// work is one participant's loop: claim the next index, recruit a helper if
// jobs remain and a token is free, run the job; until the counter passes n.
// A panicking job pushes the counter to n, so no participant pulls again.
func (m *mapRun[T]) work() {
	n := int64(len(m.out))
	defer func() {
		if r := recover(); r != nil {
			m.next.Store(n)
			m.panicMu.Lock()
			if m.panicVal == nil {
				m.panicVal = r
			}
			m.panicMu.Unlock()
		}
	}()
	for {
		i := m.next.Add(1) - 1
		if i >= n {
			return
		}
		if i+1 < n {
			m.recruit()
		}
		m.out[i] = m.fn(int(i))
	}
}

// recruit starts one more helper if this Map is below its helper cap and a
// token is free. The recruiter is either the caller, before its Wait, or a
// live helper, whose own count keeps the wait group above zero; so Add never
// races a Wait on a zero count.
func (m *mapRun[T]) recruit() {
	h := m.helpers.Load()
	if h >= m.helperCap || !tryAcquire() {
		return
	}
	if !m.helpers.CompareAndSwap(h, h+1) {
		release()
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer release()
		m.work()
	}()
}

// MapSlice is Map over the elements of a slice.
func MapSlice[In, Out any](in []In, fn func(In) Out) []Out {
	return Map(len(in), func(i int) Out { return fn(in[i]) })
}

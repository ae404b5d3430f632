package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(3*time.Second, func() { order = append(order, 3) })
	s.At(1*time.Second, func() { order = append(order, 1) })
	s.At(2*time.Second, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", s.Now())
	}
	if s.Events() != 3 {
		t.Errorf("Events = %d, want 3", s.Events())
	}
}

// TestStepFiresOneEventAtATime pins Step to Run's order, one event per call,
// including an event scheduled for the current instant, and to Stop.
func TestStepFiresOneEventAtATime(t *testing.T) {
	s := New()
	var order []int
	s.At(2*time.Second, func() { order = append(order, 2) })
	s.At(time.Second, func() {
		order = append(order, 1)
		s.After(0, func() { order = append(order, 10) })
	})
	s.At(3*time.Second, func() { order = append(order, 3); s.Stop() })
	s.At(4*time.Second, func() { order = append(order, 4) })
	want := []int{1, 10, 2, 3}
	for n := 1; s.Step(); n++ {
		if len(order) != n || order[n-1] != want[n-1] {
			t.Fatalf("after step %d: fired %v, want prefix of %v", n, order, want)
		}
	}
	if len(order) != len(want) || s.Pending() != 1 {
		t.Fatalf("fired %v with %d pending; want %v and the post-Stop event left queued", order, s.Pending(), want)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := New()
	var times []time.Duration
	s.After(time.Second, func() {
		times = append(times, s.Now())
		s.After(2*time.Second, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 3*time.Second {
		t.Errorf("times = %v", times)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New()
	fired := 0
	s.At(time.Second, func() { fired++ })
	s.At(10*time.Second, func() { fired++ })
	s.RunUntil(5 * time.Second)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s (advanced to deadline)", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.RunUntil(20 * time.Second)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestEvery(t *testing.T) {
	s := New()
	var ticks []time.Duration
	s.Every(time.Second, 2*time.Second, func() bool {
		ticks = append(ticks, s.Now())
		return len(ticks) < 4
	})
	s.Run()
	want := []time.Duration{1 * time.Second, 3 * time.Second, 5 * time.Second, 7 * time.Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick[%d] = %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New()
	count := 0
	s.Every(0, time.Second, func() bool {
		count++
		if count == 5 {
			s.Stop()
		}
		return true
	})
	s.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if !s.Stopped() {
		t.Error("Stopped() = false")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

// TestSchedulingPastSequenceLimitPanics: heap keys hold 40 bits of sequence
// number, so the event past 2^40 panics rather than wrapping into an order
// that would fire it first; a series that would cross the limit panics
// before scheduling any element.
func TestSchedulingPastSequenceLimitPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic past the sequence limit", name)
			}
		}()
		f()
	}
	noop := func(uint64) {}
	s := New()
	s.seq = maxSeq - 1
	s.AtArg(1, noop, 0) // takes the last sequence number
	mustPanic("AtArg", func() { s.AtArg(1, noop, 0) })

	s = New()
	s.seq = maxSeq - 4
	mustPanic("AfterArgSeries", func() { s.AfterArgSeries(1, 5, noop, 0) })
	if s.Pending() != 0 {
		t.Errorf("a series past the limit left %d events pending", s.Pending())
	}
	s.AfterArgSeries(1, 4, noop, 0) // exactly fits
	s.Run()
	if s.Events() != 4 {
		t.Errorf("Events = %d after a series that fits the limit, want 4", s.Events())
	}
}

// TestLessBitMatchesBefore checks the heap's branch-free comparison against
// before on every pair of edge entries (negative, zero and extreme instants,
// equal instants and equal keys) and on random entries, some sharing an
// edge instant or key.
func TestLessBitMatchesBefore(t *testing.T) {
	ats := []time.Duration{math.MinInt64, math.MinInt64 + 1, -time.Second, -1, 0, 1, time.Second, math.MaxInt64 - 1, math.MaxInt64}
	keys := []uint64{0, 1, slotMask, 1 << slotBits, 1<<slotBits | 1, maxSeq << slotBits, math.MaxUint64 - 1, math.MaxUint64}
	var es []entry
	for _, at := range ats {
		for _, key := range keys {
			es = append(es, entry{at, key})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		es = append(es,
			entry{time.Duration(rng.Uint64()), rng.Uint64()},
			entry{ats[rng.Intn(len(ats))], rng.Uint64()},
			entry{time.Duration(rng.Uint64()), keys[rng.Intn(len(keys))]})
	}
	for _, a := range es {
		for _, b := range es {
			want := 0
			if a.before(b) {
				want = 1
			}
			if got := lessBit(a, b); got != want {
				t.Fatalf("lessBit(%v, %v) = %d, before says %v", a, b, got, a.before(b))
			}
		}
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil callback")
		}
	}()
	New().At(time.Second, nil)
}

func TestBadEveryIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive interval")
		}
	}()
	New().Every(0, 0, func() bool { return false })
}

func TestNewWithCapacity(t *testing.T) {
	s := NewWithCapacity(1024)
	if got := cap(s.queue); got != 1024 {
		t.Errorf("queue capacity = %d, want 1024", got)
	}
	// Negative hints are clamped, not panicked on.
	s = NewWithCapacity(-1)
	s.At(time.Second, func() {})
	s.Run()
	if s.Events() != 1 {
		t.Errorf("Events = %d, want 1", s.Events())
	}
}

// Interleaved schedule/execute stress: nested events keep the heap busy at
// mixed depths so sift-up and sift-down both get exercised past the 4-ary
// branch boundaries.
func TestHeapStressInterleaved(t *testing.T) {
	s := New()
	var fired []time.Duration
	record := func() { fired = append(fired, s.Now()) }
	// Seed a pseudo-random but deterministic schedule pattern.
	x := uint64(12345)
	next := func(mod uint64) time.Duration {
		x = x*6364136223846793005 + 1442695040888963407
		return time.Duration(x%mod) * time.Millisecond
	}
	for i := 0; i < 500; i++ {
		at := next(1000)
		s.At(at, func() {
			record()
			if s.Events()%3 == 0 {
				s.After(next(50), record)
			}
		})
	}
	s.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("clock went backwards: fired[%d]=%v < fired[%d]=%v",
				i, fired[i], i-1, fired[i-1])
		}
	}
	if uint64(len(fired)) != s.Events() {
		t.Fatalf("recorded %d events, simulator counted %d", len(fired), s.Events())
	}
}

// Property: for any multiset of schedule times, execution order is the
// sorted order and the clock never goes backwards.
func TestEventOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New()
		var fired []time.Duration
		for _, o := range offsets {
			at := time.Duration(o) * time.Millisecond
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(offsets) {
			return false
		}
		sorted := make([]time.Duration, len(offsets))
		for i, o := range offsets {
			sorted[i] = time.Duration(o) * time.Millisecond
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAtArgOrderMatchesAt pins the monomorphic form to the closure form:
// the same schedule driven through AtArg fires in exactly the order the
// At-only simulation produces.
func TestAtArgOrderMatchesAt(t *testing.T) {
	offsets := []int{7, 3, 3, 9, 0, 3, 7, 0}

	runAt := func() []int {
		s := New()
		var order []int
		for i, o := range offsets {
			i := i
			s.At(time.Duration(o)*time.Millisecond, func() { order = append(order, i) })
		}
		s.Run()
		return order
	}
	runAtArg := func() []int {
		s := New()
		var order []int
		record := func(arg uint64) { order = append(order, int(arg)) }
		for i, o := range offsets {
			s.AtArg(time.Duration(o)*time.Millisecond, record, uint64(i))
		}
		s.Run()
		return order
	}

	at, atArg := runAt(), runAtArg()
	if len(at) != len(atArg) {
		t.Fatalf("At fired %d events, AtArg fired %d", len(at), len(atArg))
	}
	for i := range at {
		if at[i] != atArg[i] {
			t.Fatalf("order diverges at %d: At=%v AtArg=%v", i, at, atArg)
		}
	}
}

// TestSameInstantHeapBeforeRing pins the order of events due at the current
// instant: events queued for instant T before T (smaller seq) fire before
// events scheduled AT instant T, which fire in scheduling order — exactly
// the (time, seq) total order. Both kinds go through the same queue.
func TestSameInstantHeapBeforeRing(t *testing.T) {
	s := New()
	var order []string
	record := func(tag string) { order = append(order, tag) }
	const T = time.Second
	s.At(T, func() {
		record("queued-a")
		// Scheduled at now == T: must fire after queued-b.
		s.At(T, func() {
			record("now-c")
			s.After(0, func() { record("now-e") })
		})
	})
	s.At(T, func() {
		record("queued-b")
		s.After(0, func() { record("now-d") })
	})
	s.Run()
	want := []string{"queued-a", "queued-b", "now-c", "now-d", "now-e"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSameInstantCascadeGrowsRing runs a cascade where each event schedules
// the next at the same instant, repeated across four instants queued up
// front: each link is queued at the buffer's earliest end, ahead of the
// later instants' first links, and every link fires.
func TestSameInstantCascadeGrowsRing(t *testing.T) {
	s := New()
	fired := 0
	var chain func(uint64)
	chain = func(remaining uint64) {
		fired++
		if remaining > 0 {
			s.AfterArg(0, chain, remaining-1)
		}
	}
	for round := 1; round <= 4; round++ {
		s.AfterArg(time.Duration(round)*time.Second, chain, 63)
	}
	s.Run()
	if fired != 4*64 {
		t.Errorf("fired = %d, want %d", fired, 4*64)
	}
	if s.Events() != uint64(4*64) {
		t.Errorf("Events = %d, want %d", s.Events(), 4*64)
	}
}

// TestRunUntilDrainsSameInstantAtDeadline: an event at the deadline that
// schedules another at the same instant must see both fire before the clock
// parks at the deadline.
func TestRunUntilDrainsSameInstantAtDeadline(t *testing.T) {
	s := New()
	fired := 0
	s.At(time.Second, func() {
		fired++
		s.After(0, func() { fired++ })
	})
	s.At(2*time.Second, func() { fired++ })
	s.RunUntil(time.Second)
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (same-instant follow-up within deadline)", fired)
	}
	if s.Now() != time.Second {
		t.Errorf("Now = %v, want 1s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
}

// TestMaxPendingWatermark: MaxPending records the peak queue depth, events
// scheduled for the current instant included, and survives the drain.
func TestMaxPendingWatermark(t *testing.T) {
	s := New()
	noop := func(uint64) {}
	s.At(time.Second, func() {
		for i := 0; i < 3; i++ {
			s.AfterArg(0, noop, 0) // events due now count toward the peak
		}
	})
	for i := 1; i <= 4; i++ {
		s.AtArg(time.Duration(i)*time.Second, noop, 0)
	}
	s.Run()
	// Peak: 4 AtArg timers + the At(1s) event = 5 before run; during the 1s
	// event 3 events due now join while all 4 AtArg timers are still queued = 7.
	if got := s.MaxPending(); got != 7 {
		t.Errorf("MaxPending = %d, want 7", got)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after drain, want 0", s.Pending())
	}
}

// TestAtArgZeroAllocSteadyState gates the monomorphic schedule→fire cycle:
// once the queue has its capacity, scheduling and dispatching an AtArg event
// allocates nothing.
func TestAtArgZeroAllocSteadyState(t *testing.T) {
	s := NewWithCapacity(4)
	var sum uint64
	fn := func(arg uint64) { sum += arg }
	at := time.Duration(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		at += time.Millisecond
		s.AtArg(at, fn, 1)
		s.Run()
	}); allocs != 0 {
		t.Errorf("AtArg schedule+dispatch allocates %.1f/op, want 0", allocs)
	}

	// A same-instant cascade through the buffer, warm.
	var cascade func(uint64)
	cascade = func(remaining uint64) {
		sum++
		if remaining > 0 {
			s.AfterArg(0, cascade, remaining-1)
		}
	}
	s.AfterArg(time.Millisecond, cascade, 32)
	s.Run() // warms the payload table
	if allocs := testing.AllocsPerRun(100, func() {
		s.AfterArg(time.Millisecond, cascade, 32)
		s.Run()
	}); allocs != 0 {
		t.Errorf("same-instant cascade allocates %.1f/batch, want 0", allocs)
	}
}

// Property: mixing At and AtArg over any multiset of schedule times still
// fires in sorted time order with FIFO ties.
func TestEventOrderPropertyAtArg(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New()
		var fired []time.Duration
		record := func(uint64) { fired = append(fired, s.Now()) }
		for i, o := range offsets {
			at := time.Duration(o) * time.Millisecond
			if i%2 == 0 {
				s.AtArg(at, record, uint64(i))
			} else {
				s.At(at, func() { fired = append(fired, s.Now()) })
			}
		}
		s.Run()
		if len(fired) != len(offsets) {
			return false
		}
		sorted := make([]time.Duration, len(offsets))
		for i, o := range offsets {
			sorted[i] = time.Duration(o) * time.Millisecond
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkSimSchedule measures the At→Run hot path: one schedule plus one
// dispatch per iteration against a warm queue. With the value-typed 4-ary
// heap this is 0 allocs/op (container/heap boxed one *event per At).
func BenchmarkSimSchedule(b *testing.B) {
	s := NewWithCapacity(1)
	fn := func() {}
	t := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += time.Millisecond
		s.At(t, fn)
		s.Run()
	}
}

// BenchmarkSimScheduleDeep keeps 1024 events pending so every At/pop pays
// realistic sift depths rather than the trivial single-element case.
func BenchmarkSimScheduleDeep(b *testing.B) {
	const depth = 1024
	s := NewWithCapacity(depth + 1)
	fn := func() {}
	t := time.Duration(0)
	for i := 0; i < depth; i++ {
		t += time.Millisecond
		s.At(t, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += time.Millisecond
		s.At(t, fn)
		s.RunUntil(s.buf[s.nbuf-1].at) // the earliest pending instant
	}
}

// BenchmarkSimScheduleHold is the shape of a per-admission control loop: nine
// far-future events stay pending while each op schedules an event 1 µs
// ahead, which fires next.
func BenchmarkSimScheduleHold(b *testing.B) {
	s := NewWithCapacity(16)
	fn := func(uint64) {}
	for i := 0; i < 9; i++ {
		s.AtArg(time.Duration(1000+i)*time.Hour, fn, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterArg(time.Microsecond, fn, uint64(i))
		s.Step()
	}
}

// BenchmarkSimScheduleArg is BenchmarkSimSchedule through the monomorphic
// AtArg form: schedule+dispatch with the callback and argument stored inline
// in the event, no closure.
func BenchmarkSimScheduleArg(b *testing.B) {
	s := NewWithCapacity(1)
	fn := func(uint64) {}
	t := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += time.Millisecond
		s.AtArg(t, fn, uint64(i))
		s.Run()
	}
}

// BenchmarkSimBatchDispatch measures a same-instant cascade: one timer
// starts a 64-event cascade at its instant, each link scheduled at now,
// queued at the buffer's earliest end and fired from it. ns/op is per
// 64-event batch.
func BenchmarkSimBatchDispatch(b *testing.B) {
	s := NewWithCapacity(4)
	var cascade func(uint64)
	cascade = func(remaining uint64) {
		if remaining > 0 {
			s.AfterArg(0, cascade, remaining-1)
		}
	}
	t := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += time.Millisecond
		s.AtArg(t, cascade, 63)
		s.Run()
	}
}

// BenchmarkSimSeries measures one workload burst: a 300-element series 2 µs
// apart whose every element schedules a drain-like follow-up at now + 1 µs,
// as an offer schedules its server's drain. The series holds one heap
// element however long it is, so the heap stays two deep. ns/op is per
// burst (600 events).
func BenchmarkSimSeries(b *testing.B) {
	s := NewWithCapacity(4)
	drain := func(uint64) {}
	offer := func(uint64) { s.AfterArg(time.Microsecond, drain, 0) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterArgSeries(2*time.Microsecond, 300, offer, 0)
		s.Run()
	}
}

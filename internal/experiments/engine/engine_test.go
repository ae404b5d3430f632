package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderPreserved(t *testing.T) {
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	got := Map(100, func(i int) int {
		time.Sleep(time.Duration((100-i)%7) * time.Microsecond)
		return i * i
	})
	if len(got) != 100 {
		t.Fatalf("len = %d, want 100", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapSequentialWhenOneWorker(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	var order []int
	Map(10, func(i int) int {
		order = append(order, i) // safe: must run on the calling goroutine only
		return i
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order violated: %v", order)
		}
	}
}

func TestMapNestedNoDeadlock(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	for _, w := range []int{2, 3, 8} {
		SetWorkers(w)
		done := make(chan []int, 1)
		go func() {
			done <- Map(8, func(i int) int {
				inner := Map(8, func(j int) int { return j })
				sum := 0
				for _, v := range inner {
					sum += v
				}
				return sum + i
			})
		}()
		select {
		case got := <-done:
			for i, v := range got {
				if v != 28+i {
					t.Fatalf("workers=%d: got[%d] = %d, want %d", w, i, v, 28+i)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: nested Map deadlocked", w)
		}
	}
}

// TestMapIdleLanePullsNextJob makes job k wait until every other job has
// finished, for every k, at two workers. That finishes only if the lane not
// stuck in job k pulls all the others — including the jobs after k, which a
// scheduler that hands out jobs in the caller's loop never reaches while the
// caller itself sits in k.
func TestMapIdleLanePullsNextJob(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	const n = 6
	for k := 0; k < n; k++ {
		var finished atomic.Int64
		others := make(chan struct{})
		var timedOut atomic.Bool
		Map(n, func(i int) int {
			if i != k {
				time.Sleep(time.Millisecond)
				if finished.Add(1) == n-1 {
					close(others)
				}
				return i
			}
			select {
			case <-others:
			case <-time.After(2 * time.Second):
				timedOut.Store(true)
			}
			return i
		})
		if timedOut.Load() {
			t.Fatalf("job %d waited 2 s for the other %d jobs: the idle lane did not pull them (%d finished)",
				k, n-1, finished.Load())
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in job did not propagate")
		}
	}()
	Map(8, func(i int) int {
		if i == 3 {
			panic("boom")
		}
		return i
	})
}

// TestMapPanicStopsPullsAndWaits runs jobs 0, 1 and 2 on three lanes and
// panics in job 2 while the other two are running. They return only once
// the panicking lane has given its token back, that is after the panic was
// recorded: no job may start after that, and the panic may reach the caller
// only after job 1, running on a helper, has returned.
func TestMapPanicStopsPullsAndWaits(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	const n = 10
	entry := inFlight.Load()
	var started [n]atomic.Bool
	var running sync.WaitGroup
	running.Add(2)
	job2Running := make(chan struct{})
	var job1Returned, stuck atomic.Bool
	// waitForPanic blocks until the panicking helper has exited, leaving
	// one token (the other helper's) in flight.
	waitForPanic := func() {
		<-job2Running
		for deadline := time.Now().Add(5 * time.Second); inFlight.Load() > entry+1; {
			if time.Now().After(deadline) {
				stuck.Store(true)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the job's panic value %q", r, "boom")
			}
			if !job1Returned.Load() {
				t.Error("panic re-raised while job 1 was still running")
			}
		}()
		Map(n, func(i int) int {
			started[i].Store(true)
			switch i {
			case 0, 1:
				running.Done()
				waitForPanic()
				if i == 1 {
					job1Returned.Store(true)
				}
			case 2:
				close(job2Running)
				running.Wait()
				panic("boom")
			}
			return i
		})
		t.Fatal("Map returned normally after a job panicked")
	}()
	if stuck.Load() {
		t.Error("the panicking lane kept its token for 5 s")
	}
	for i := 3; i < n; i++ {
		if started[i].Load() {
			t.Errorf("job %d started after job 2 panicked", i)
		}
	}
}

// TestMapReleasesTokens checks the token budget at several worker counts:
// no more than workers-1 helpers hold tokens at once, and every token is
// back when Map returns — after a nested fan-out, and after a panic raised
// on one lane while the other lane is still inside a job.
func TestMapReleasesTokens(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	for _, w := range []int{2, 3, 8} {
		SetWorkers(w)
		entry := inFlight.Load()
		var peak atomic.Int64
		Map(12, func(i int) int {
			for {
				cur, p := inFlight.Load(), peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			return len(Map(3, func(j int) int {
				time.Sleep(200 * time.Microsecond)
				return j
			}))
		})
		if got := inFlight.Load(); got != entry {
			t.Errorf("workers=%d: %d tokens in flight after Map, want %d", w, got, entry)
		}
		if p := peak.Load(); p > int64(w-1) {
			t.Errorf("workers=%d: %d helpers held tokens at once, budget is %d", w, p, w-1)
		}

		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: panic did not propagate", w)
				}
			}()
			Map(4, func(i int) int {
				if i == 1 {
					panic("boom")
				}
				time.Sleep(20 * time.Millisecond)
				return i
			})
		}()
		if got := inFlight.Load(); got != entry {
			t.Errorf("workers=%d: %d tokens in flight after a panicking Map, want %d", w, got, entry)
		}
	}
}

func TestMapSlice(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	got := MapSlice([]string{"a", "bb", "ccc"}, func(s string) int { return len(s) })
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSetWorkersClampsAndRestores(t *testing.T) {
	orig := Workers()
	prev := SetWorkers(0)
	if prev != orig {
		t.Fatalf("SetWorkers returned %d, want %d", prev, orig)
	}
	if Workers() != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(0), want 1 (clamped)", Workers())
	}
	SetWorkers(orig)
}

func TestMemoSingleFlight(t *testing.T) {
	ResetCache()
	defer ResetCache()
	prev := SetWorkers(8)
	defer SetWorkers(prev)

	var computions atomic.Int64
	k := Key{Scenario: "S", Policy: "P", Seed: 1}
	var wg sync.WaitGroup
	results := make([]int, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = Memo(k, func() int {
				computions.Add(1)
				time.Sleep(time.Millisecond)
				return 42
			})
		}(i)
	}
	wg.Wait()
	if n := computions.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("results[%d] = %d, want 42", i, v)
		}
	}
	exec, cacheHits := Stats()
	if exec != 1 {
		t.Fatalf("Stats executed = %d, want 1", exec)
	}
	if cacheHits != 31 {
		t.Fatalf("Stats hits = %d, want 31", cacheHits)
	}
	if CacheLen() != 1 {
		t.Fatalf("CacheLen = %d, want 1", CacheLen())
	}
}

func TestMemoDistinctKeys(t *testing.T) {
	ResetCache()
	defer ResetCache()
	for i := 0; i < 5; i++ {
		k := Key{Scenario: "S", Policy: fmt.Sprintf("p%d", i), Seed: int64(i), Schedule: "sched"}
		got := Memo(k, func() int { return i * 10 })
		if got != i*10 {
			t.Fatalf("Memo(%v) = %d, want %d", k, got, i*10)
		}
	}
	if CacheLen() != 5 {
		t.Fatalf("CacheLen = %d, want 5", CacheLen())
	}
	exec, cacheHits := Stats()
	if exec != 5 || cacheHits != 0 {
		t.Fatalf("Stats = (%d, %d), want (5, 0)", exec, cacheHits)
	}
}

func TestMapUnderMemoRace(t *testing.T) {
	// Hammer Map + Memo together from many goroutines; run with -race.
	ResetCache()
	defer ResetCache()
	prev := SetWorkers(8)
	defer SetWorkers(prev)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Map(16, func(i int) int {
				return Memo(Key{Scenario: "race", Seed: int64(i % 4)}, func() int {
					return i % 4
				})
			})
		}()
	}
	wg.Wait()
	if n := CacheLen(); n != 4 {
		t.Fatalf("CacheLen = %d, want 4", n)
	}
}

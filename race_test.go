package smartconf

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"smartconf/internal/declog"
	"smartconf/internal/experiments/engine"
)

// TestConcurrentControlLoopIsRaceFree hammers one Manager from the three
// places a deployed controller is touched concurrently — sensor threads
// feeding measurements, actuator threads reading adjusted settings, and an
// administrator retargeting goals — with a decision log attached, so `go
// test -race` can prove the locking story. The assertions are deliberately
// loose; the interleaving, not the arithmetic, is under test.
func TestConcurrentControlLoopIsRaceFree(t *testing.T) {
	log := NewDecisionLog(256)
	m := newTestManager(t, WithConfOptions(WithDecisionLog(log)))
	c, err := m.Conf("max.queue.size")
	if err != nil {
		t.Fatal(err)
	}
	ic, err := m.IndirectConf("response.queue.maxsize", Identity())
	if err != nil {
		t.Fatal(err)
	}

	const iters = 500
	var wg sync.WaitGroup
	start := make(chan struct{})
	spawn := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				f(i)
			}
		}()
	}

	for g := 0; g < 3; g++ {
		spawn(func(i int) { c.SetPerf(400 + float64(i%100)) })
		spawn(func(i int) { ic.SetPerf(400+float64(i%100), float64(i%200)) })
		spawn(func(i int) { _ = c.Conf(); _ = c.Value() })
		spawn(func(i int) { _ = ic.Conf(); _ = ic.Value() })
	}
	spawn(func(i int) {
		if err := m.SetGoal("queue_memory", 480+float64(i%30)); err != nil {
			t.Error(err)
		}
	})
	spawn(func(i int) {
		for _, s := range m.Snapshots() {
			_ = s.Name
		}
	})

	close(start)
	wg.Wait()

	if log.Total() == 0 {
		t.Error("no decision logged under concurrent updates")
	}
	if v := c.Value(); v < 0 || v > 5000 {
		t.Errorf("setting %v escaped [min, max] under concurrency", v)
	}
}

// TestConcurrentDecisionLogIsRaceFree hammers one decision log from every
// place a deployed log is touched concurrently — a direct and an indirect
// configuration sharing the log, each deciding from its own sensor threads,
// an administrator retargeting both (the goal epoch advances inside the
// decision's critical section), a second producer appending directly,
// exporters snapshotting and serializing the ring mid-run, and crash-style
// epoch bumps — so `go test -race` pins the ring's locking story end to end,
// Append through Envelope/Encode. A watchdog turns a lock-order mistake into
// a failure within seconds instead of a hung test, and the log must hold
// exactly one record per controller update plus the direct appends.
func TestConcurrentDecisionLogIsRaceFree(t *testing.T) {
	log := declog.New(128)
	profile := NewProfile().
		Add(100, 10, 11, 12).
		Add(200, 20, 21, 22).
		Add(400, 40, 41, 39).
		Add(800, 80, 82, 81)
	spec := Spec{
		Name:    "race.knob",
		Metric:  "race_load",
		Goal:    50,
		Hard:    true,
		Initial: 400,
		Min:     1, Max: 10_000,
	}
	c, err := New(spec, profile, WithDecisionLog(log))
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "race.threshold"
	ic, err := NewIndirect(spec, profile, Identity(), WithDecisionLog(log))
	if err != nil {
		t.Fatal(err)
	}
	direct := log.Register("race.direct")

	const iters = 500
	var wg sync.WaitGroup
	start := make(chan struct{})
	spawn := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				f(i)
			}
		}()
	}

	const directWriters = 2
	for g := 0; g < 2; g++ {
		spawn(func(i int) { c.SetPerf(40 + float64(i%40)); _ = c.Value() })
		spawn(func(i int) { ic.SetPerf(40+float64(i%40), float64(100+i%300)); _ = ic.Conf() })
		spawn(func(i int) { _ = log.Snapshot(); _ = log.Len(); _ = log.Sources() })
		spawn(func(i int) {
			env := log.Envelope("race", "none", 1, "fp")
			if _, err := declog.Encode(env); err != nil {
				t.Errorf("mid-run export failed to encode: %v", err)
			}
		})
	}
	for g := 0; g < directWriters; g++ {
		spawn(func(i int) {
			log.Append(declog.Record{Source: direct, Period: uint32(i + 1), Sensed: float64(i), Err: 1, Pole: 0.5, Raw: 2, Applied: 2})
		})
	}
	spawn(func(i int) {
		c.SetGoal(45 + float64(i%10))
		ic.SetGoal(45 + float64(i%10))
		_ = c.Snapshot()
	})
	spawn(func(i int) { log.BumpEpoch(); _ = log.Epoch(); _ = log.Total() })

	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("goroutines sharing the decision log still running after 10s: a lock is taken twice or never released")
	}

	updates := c.Snapshot().Updates + ic.Snapshot().Updates
	if updates == 0 {
		t.Error("no decisions were made under concurrency")
	}
	if got, want := log.Total(), uint64(updates+directWriters*iters); got != want {
		t.Errorf("log total %d, want %d (%d controller updates + %d direct appends)",
			got, want, updates, directWriters*iters)
	}
	if n := log.Len(); n > log.Cap() {
		t.Errorf("ring holds %d records over capacity %d", n, log.Cap())
	}
}

// TestConcurrentEngineMapMemoIsRaceFree drives the parallel experiment
// engine the way a busy artifact build does — Map fan-outs whose jobs go
// through the memoized run cache and fan out again themselves — while a
// maintenance goroutine races ResetCache and Stats against them, so `go
// test -race` pins the engine's thread-safety contract alongside the
// controller's. Each memoized value depends only on its key, so the results
// must be correct whether a given job hit the cache, computed fresh, or had
// its entry dropped mid-flight by a concurrent reset.
func TestConcurrentEngineMapMemoIsRaceFree(t *testing.T) {
	prev := engine.SetWorkers(8)
	defer engine.SetWorkers(prev)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			engine.ResetCache()
			engine.Stats()
			_ = engine.CacheLen()
		}
	}()

	for round := 0; round < 25; round++ {
		seed := int64(round)
		got := engine.Map(16, func(i int) int {
			key := engine.Key{Scenario: "race", Policy: fmt.Sprintf("p%d", i%4), Seed: seed, Schedule: "unit"}
			return engine.Memo(key, func() int {
				inner := engine.Map(4, func(j int) int { return j })
				return (i % 4) * len(inner)
			})
		})
		for i, v := range got {
			if want := (i % 4) * 4; v != want {
				t.Fatalf("round %d: Map[%d] = %d, want %d (cache returned a value computed for a different key)",
					round, i, v, want)
			}
		}
	}
	close(stop)
	wg.Wait()
}

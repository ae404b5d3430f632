package experiments

import (
	"math/rand"
	"testing"
	"time"

	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// TestRPCWorkloadBurstZeroAlloc pins the figure and chaos workloads'
// per-operation cost: once the slot table's blocks and the event queue have
// grown to a burst's size, delivering a whole burst (the phase check, the
// generated operations, their series and its dispatch) allocates nothing,
// because a delivered block is recycled for a later burst. The second shape
// is HB3813's burst (300 operations 2 ms apart) arriving every 500 ms, so
// two bursts, and two blocks, are in flight at once.
func TestRPCWorkloadBurstZeroAlloc(t *testing.T) {
	for _, shape := range []struct {
		size           int
		every, spacing time.Duration
	}{{64, time.Second, 10 * time.Millisecond}, {300, 500 * time.Millisecond, 2 * time.Millisecond}} {
		s := sim.New()
		phase := workload.YCSBPhase{Name: "burst", WriteRatio: 1, RequestBytes: 1 << 20}
		w := &rpcWorkload{
			gen:       workload.NewYCSB(1, 1000, phase),
			burstSize: shape.size, burstEvery: shape.every, spacing: shape.spacing,
			phases: []workload.YCSBPhase{phase},
		}
		ops := 0
		w.run(s, time.Hour, rand.New(rand.NewSource(1)), func(workload.Op) { ops++ })

		var now time.Duration
		burst := func() {
			now += shape.every
			s.RunUntil(now)
		}
		for i := 0; i < 10; i++ {
			burst()
		}
		before := ops
		allocs := testing.AllocsPerRun(100, burst)
		if want := 100 * (shape.size - shape.size/10); ops-before < want { // 101 bursts of size ± 10%
			t.Fatalf("size %d: only %d operations delivered across the measured bursts", shape.size, ops-before)
		}
		if allocs != 0 {
			t.Fatalf("size %d: a warmed burst allocates %.2f objects (%.4f per operation), want 0",
				shape.size, allocs, allocs*float64(101)/float64(ops-before))
		}
	}
}

// TestSlotTableReusesSlots checks the slot table delivers every value of a
// burst once, in order and on its spacing, and recycles delivered blocks
// instead of growing: two bursts in flight per round never need a third.
func TestSlotTableReusesSlots(t *testing.T) {
	s := sim.New()
	var got []int
	var at []time.Duration
	tab := newSlotTable(s, func(v int) {
		got = append(got, v)
		at = append(at, s.Now())
	})
	var want []int
	var wantAt []time.Duration
	for round := 0; round < 3; round++ {
		start := s.Now()
		for b, every := range []time.Duration{2 * time.Millisecond, 3 * time.Millisecond} {
			for i := 0; i < 4; i++ {
				tab.push(round*100 + b*10 + i)
			}
			tab.deliver(every)
		}
		tab.deliver(time.Millisecond) // nothing collected: no-op
		s.Run()
		// The bursts interleave by due time; ties at 0 and 6 ms go to the
		// burst delivered first.
		for _, e := range []struct {
			v  int
			ms int
		}{{0, 0}, {10, 0}, {1, 2}, {11, 3}, {2, 4}, {3, 6}, {12, 6}, {13, 9}} {
			want = append(want, round*100+e.v)
			wantAt = append(wantAt, start+time.Duration(e.ms)*time.Millisecond)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] || at[i] != wantAt[i] {
			t.Fatalf("delivered %v at %v, want %v at %v", got, at, want, wantAt)
		}
	}
	if len(tab.blocks) != 2 {
		t.Fatalf("slot table grew to %d blocks for 2 bursts in flight", len(tab.blocks))
	}
}

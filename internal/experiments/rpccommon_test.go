package experiments

import (
	"math/rand"
	"testing"
	"time"

	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// TestRPCWorkloadBurstZeroAlloc pins the figure and chaos workloads'
// per-operation cost: once the slot table and the event queue have grown to
// a burst's size, delivering a whole burst (the phase check, ~64 generated
// operations, their scheduling and dispatch) allocates nothing.
func TestRPCWorkloadBurstZeroAlloc(t *testing.T) {
	s := sim.New()
	phase := workload.YCSBPhase{Name: "burst", WriteRatio: 1, RequestBytes: 1 << 20}
	w := &rpcWorkload{
		gen:       workload.NewYCSB(1, 1000, phase),
		burstSize: 64, burstEvery: time.Second, spacing: 10 * time.Millisecond,
		phases: []workload.YCSBPhase{phase},
	}
	ops := 0
	w.run(s, time.Hour, rand.New(rand.NewSource(1)), func(workload.Op) { ops++ })

	var now time.Duration
	burst := func() {
		now += time.Second
		s.RunUntil(now)
	}
	for i := 0; i < 10; i++ {
		burst()
	}
	before := ops
	allocs := testing.AllocsPerRun(100, burst)
	if ops-before < 100*57 { // 101 bursts of 64 ± 10%
		t.Fatalf("only %d operations delivered across the measured bursts", ops-before)
	}
	if allocs != 0 {
		t.Fatalf("a warmed burst allocates %.2f objects (%.4f per operation), want 0",
			allocs, allocs*float64(101)/float64(ops-before))
	}
}

// TestSlotTableReusesSlots checks the slot table delivers every value once,
// in due order, and recycles fired slots instead of growing.
func TestSlotTableReusesSlots(t *testing.T) {
	s := sim.New()
	var got []int
	tab := newSlotTable(s, func(v int) { got = append(got, v) })
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			tab.after(time.Duration(4-i)*time.Millisecond, round*10+i)
		}
		s.Run()
	}
	want := []int{3, 2, 1, 0, 13, 12, 11, 10, 23, 22, 21, 20}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
	if len(tab.vals) != 4 {
		t.Fatalf("slot table grew to %d slots for 4 values in flight", len(tab.vals))
	}
}

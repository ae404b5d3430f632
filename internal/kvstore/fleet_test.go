package kvstore

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"smartconf/internal/cluster"
	"smartconf/internal/memsim"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// TestFleetLoadTotalMatchesLoadSum is the running-total oracle for Memstore
// fleets: after every event of a fleet run, the fleet's TotalLoad must equal
// the in-order float sum of the members' Load() bit for bit. The run passes
// a finite admission bound, stores blocked on a flush that make writes
// spill, a Kill (writes are synchronous, so there is nothing to evacuate), a
// Restart, an OOM crash whose residual load stays counted, and a member that
// joins the fleet already holding load.
func TestFleetLoadTotalMatchesLoadSum(t *testing.T) {
	const (
		members = 6
		writes  = 2000
		mib     = 1 << 20
	)
	s := sim.New()
	f := cluster.NewFleet[workload.Op](cluster.KeyAffinity)
	cfg := MemstoreConfig{
		UpperLimitBytes:    8 * mib,
		FlushBytesPerSec:   16 * mib,
		FlushFixedOverhead: 50 * time.Millisecond,
		WriteBaseLatency:   time.Millisecond,
		BaseHeapBytes:      mib,
	}
	stores := make([]*Memstore, members)
	heaps := make([]*memsim.Heap, members)
	for i := range stores {
		heaps[i] = memsim.NewHeap(1 << 30)
		st := NewMemstore(s, heaps[i], cfg, 0.5)
		st.SetID(i)
		if i == 0 {
			st.Write(mib) // joins the fleet already holding load
		}
		stores[i] = st
		f.Add(st, 1, func(op workload.Op) bool { return st.Write(op.Bytes) })
	}
	f.SetMaxInFlight(30 * mib)
	// The owner of key 0 gets a heap a second unflushed MiB does not fit.
	oomIndex := f.Router().Route(cluster.Request{Key: 0})
	heaps[oomIndex].SetCapacity(cfg.BaseHeapBytes + 3*mib/2)

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < writes; i++ {
		op := workload.Op{Key: uint64(rng.Intn(12)), Bytes: mib, Write: true}
		s.At(time.Duration(i)*2*time.Millisecond, func() {
			f.Dispatch(cluster.Request{Key: op.Key, Cost: float64(op.Bytes)}, op)
		})
	}
	victim := -1
	s.At(time.Second, func() {
		for i, st := range stores {
			if st.Alive() && (victim < 0 || st.Load() > stores[victim].Load()) {
				victim = i
			}
		}
		stores[victim].Kill()
	})
	s.At(1500*time.Millisecond, func() { stores[victim].Restart() })

	events := 0
	check := func() {
		var sum float64
		for _, st := range stores {
			sum += st.Load()
		}
		if got := f.TotalLoad(); math.Float64bits(got) != math.Float64bits(sum) {
			t.Fatalf("event %d at %v: TotalLoad %v, members' Load() sum %v", events, s.Now(), got, sum)
		}
	}
	check()
	for s.Step() {
		events++
		check()
	}

	if f.Throttled() == 0 {
		t.Error("the run never hit the admission bound")
	}
	spilled := int64(0)
	for _, st := range stores {
		spilled += st.Rejected()
	}
	if spilled == 0 {
		t.Error("no store refused a write: the run never spilled")
	}
	if st := stores[oomIndex]; !st.Crashed() || st.Load() == 0 {
		t.Errorf("store %d crashed=%v load=%v: want an OOM crash holding residual load", oomIndex, st.Crashed(), st.Load())
	}
	if victim < 0 || victim == oomIndex || !stores[victim].Alive() {
		t.Errorf("victim %d did not come back", victim)
	}
}

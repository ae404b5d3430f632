package rpcserver

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

// TestFleetLoadTotalMatchesLoadSum is the running-total oracle: after every
// event of a fleet run, the fleet's TotalLoad must equal the in-order float
// sum of the members' Load() bit for bit. The run passes a finite admission
// bound, member queue bounds that make hot keys spill, a Kill whose
// evacuees re-dispatch, a Restart, and an OOM crash whose residual load
// stays counted.
func TestFleetLoadTotalMatchesLoadSum(t *testing.T) {
	const (
		members  = 8
		oomIndex = 3
		requests = 4000
	)
	s := sim.New()
	f := cluster.NewFleet[workload.Op](cluster.KeyAffinity)
	cfg := testConfig()
	cfg.Workers = 1
	cfg.MaxBatch = 4
	cfg.ServiceBaseTime = 8 * time.Millisecond
	servers := make([]*Server, members)
	for i := range servers {
		heap := int64(1 << 30)
		if i == oomIndex {
			heap = cfg.BaseHeapBytes + 3<<20 // a fourth queued 1 MiB call does not fit
		}
		sv := New(s, memsim.NewHeap(heap), cfg)
		sv.SetID(i)
		sv.SetMaxQueue(6)
		sv.Preallocate(8, 8, 4)
		sv.OnEvacuate = func(op workload.Op) { f.Redispatch(cluster.Request{Key: op.Key}, op) }
		servers[i] = sv
		f.Add(sv, 1, sv.Offer)
	}
	f.SetMaxInFlight(40)

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < requests; i++ {
		op := workload.Op{Key: uint64(rng.Intn(24)), Bytes: 1 << 20, Write: rng.Intn(2) == 0}
		s.At(time.Duration(i)*time.Millisecond, func() {
			f.Dispatch(cluster.Request{Key: op.Key, Cost: float64(op.Bytes)}, op)
		})
	}
	victim := -1
	s.At(1500*time.Millisecond, func() {
		// Kill the busiest live member, so its whole backlog evacuates.
		for i, sv := range servers {
			if sv.Alive() && (victim < 0 || sv.Load() > servers[victim].Load()) {
				victim = i
			}
		}
		servers[victim].Kill()
	})
	s.At(2500*time.Millisecond, func() { servers[victim].Restart() })

	events := 0
	check := func() {
		var sum float64
		for _, sv := range servers {
			sum += sv.Load()
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

	if f.Throttled() == 0 || f.Redispatched() == 0 {
		t.Errorf("throttled=%d redispatched=%d: the run never hit the admission bound or evacuated", f.Throttled(), f.Redispatched())
	}
	spilled := int64(0)
	for _, sv := range servers {
		spilled += sv.Rejected()
	}
	if spilled == 0 {
		t.Error("no member refused a call: the run never spilled")
	}
	if sv := servers[oomIndex]; !sv.Crashed() || sv.Load() == 0 {
		t.Errorf("member %d crashed=%v load=%v: want an OOM crash holding residual load", oomIndex, sv.Crashed(), sv.Load())
	}
	if victim < 0 || victim == oomIndex || !servers[victim].Alive() {
		t.Errorf("victim %d did not come back", victim)
	}
}

// TestReportLoadMovesExistingLoad: a server that already holds work moves
// that load into the total it is handed, and later changes land there.
func TestReportLoadMovesExistingLoad(t *testing.T) {
	s := sim.New()
	sv := New(s, memsim.NewHeap(1<<30), testConfig())
	for i := 0; i < 6; i++ {
		sv.Offer(writeOp(1 << 20))
	}
	var total int64
	sv.ReportLoad(&total)
	if float64(total) != sv.Load() || sv.ownLoad != 0 {
		t.Fatalf("total %d, own %d after ReportLoad; want %v moved", total, sv.ownLoad, sv.Load())
	}
	s.Run()
	if total != 0 || sv.Load() != 0 {
		t.Fatalf("total %d, Load %v after the run drained", total, sv.Load())
	}
}

package llmserve

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
// bound, waiting limits that make hot prefixes spill, a Kill whose evacuees
// re-dispatch, a Restart, an OOM crash whose residual load stays counted,
// and a member that joins the fleet already holding load.
func TestFleetLoadTotalMatchesLoadSum(t *testing.T) {
	const (
		members  = 8
		oomIndex = 5
		requests = 3000
	)
	s := sim.New()
	f := cluster.NewFleet[workload.LLMRequest](cluster.KeyAffinity)
	cfg := testConfig()
	cfg.WaitingLimit = 4
	servers := make([]*Server, members)
	keyOf := func(req workload.LLMRequest) uint64 { return uint64(req.Prompt % 16) }
	for i := range servers {
		heap := int64(1 << 20)
		if i == oomIndex {
			heap = 48 << 10 // one 60-token prompt's KV does not fit
		}
		sv := New(s, memsim.NewHeap(heap), cfg)
		sv.SetID(i)
		sv.SetMaxBatchedTokens(160)
		sv.Preallocate(16)
		sv.OnEvacuate = func(req workload.LLMRequest) {
			f.Redispatch(cluster.Request{Key: keyOf(req), Cost: float64(req.Tokens())}, req)
		}
		if i == 0 {
			sv.Offer(workload.LLMRequest{Prompt: 8, Output: 4}) // joins the fleet already holding load
		}
		servers[i] = sv
		f.Add(sv, 1, sv.Offer)
	}
	f.SetMaxInFlight(40)

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < requests; i++ {
		req := workload.LLMRequest{Prompt: 4 + rng.Intn(60), Output: 1 + rng.Intn(40)}
		s.At(time.Duration(i)*time.Millisecond, func() {
			f.Dispatch(cluster.Request{Key: keyOf(req), Cost: float64(req.Tokens())}, req)
		})
	}
	victim := -1
	s.At(time.Second, func() {
		// Kill the busiest live member, so its whole batch evacuates.
		for i, sv := range servers {
			if sv.Alive() && (victim < 0 || sv.Load() > servers[victim].Load()) {
				victim = i
			}
		}
		servers[victim].Kill()
	})
	s.At(2*time.Second, func() { servers[victim].Restart() })

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
		t.Error("no member refused a request: the run never spilled")
	}
	if sv := servers[oomIndex]; !sv.Crashed() || sv.Load() == 0 {
		t.Errorf("member %d crashed=%v load=%v: want an OOM crash holding residual load", oomIndex, sv.Crashed(), sv.Load())
	}
	if victim < 0 || victim == oomIndex || !servers[victim].Alive() {
		t.Errorf("victim %d did not come back", victim)
	}
}

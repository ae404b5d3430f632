package cluster

import (
	"math"
	"testing"
)

// member couples a fake Instance with a bounded queue, so fleet tests can
// exercise offer rejection and retry spill without a real substrate.
type member struct {
	fake
	queue []int
	bound int
}

func (m *member) offer(v int) bool {
	if !m.alive || len(m.queue) >= m.bound {
		return false
	}
	m.queue = append(m.queue, v)
	m.setLoad(float64(len(m.queue)))
	return true
}

func newFleetOf(n, bound int, policy PolicyKind) (*Fleet[int], []*member) {
	f := NewFleet[int](policy)
	ms := make([]*member, n)
	for i := range ms {
		ms[i] = &member{fake: fake{id: i, alive: true}, bound: bound}
		m := ms[i]
		f.Add(m, 1, m.offer)
	}
	return f, ms
}

func TestFleetDispatchPlacesAndCounts(t *testing.T) {
	f, ms := newFleetOf(3, 10, KeyAffinity)
	want := make([]int, len(ms))
	for k := 0; k < 6; k++ {
		owner, ownerHash := 0, rendezvous(uint64(k), 0)
		for i := 1; i < len(ms); i++ {
			if h := rendezvous(uint64(k), i); h > ownerHash {
				owner, ownerHash = i, h
			}
		}
		if !f.Dispatch(Request{Key: uint64(k)}, k) {
			t.Fatalf("dispatch %d refused with empty queues", k)
		}
		want[owner]++
		if q := ms[owner].queue; len(q) == 0 || q[len(q)-1] != k {
			t.Fatalf("key %d not placed on its rendezvous owner %d", k, owner)
		}
	}
	for i, m := range ms {
		if len(m.queue) != want[i] {
			t.Fatalf("member %d holds %d, want the %d keys it owns", i, len(m.queue), want[i])
		}
	}
	if f.Submitted() != 6 || f.Refused() != 0 {
		t.Fatalf("submitted=%d refused=%d, want 6/0", f.Submitted(), f.Refused())
	}
}

func TestFleetRetrySpillsToNextMember(t *testing.T) {
	f, ms := newFleetOf(3, 2, KeyAffinity)
	// Find a key owned by member 0 and fill that member.
	var key uint64
	for k := uint64(0); ; k++ {
		if f.Router().Route(Request{Key: k}) == 0 {
			key = k
			break
		}
	}
	routed := make([]int, 0, 4)
	f.OnRoute = func(_ Request, member int) { routed = append(routed, member) }
	for i := 0; i < 4; i++ {
		if !f.Dispatch(Request{Key: key}, i) {
			t.Fatalf("dispatch %d refused; fleet has capacity 6", i)
		}
	}
	if len(ms[0].queue) != 2 {
		t.Fatalf("affinity owner holds %d, want its full bound 2", len(ms[0].queue))
	}
	if routed[0] != 0 || routed[1] != 0 {
		t.Fatalf("first two placements %v, want owner 0", routed[:2])
	}
	if routed[2] == 0 || routed[3] == 0 {
		t.Fatalf("overflow placements %v landed on the full owner", routed[2:])
	}
}

func TestFleetRefusesWhenAllFull(t *testing.T) {
	f, _ := newFleetOf(2, 1, KeyAffinity)
	for i := 0; i < 2; i++ {
		if !f.Dispatch(Request{}, i) {
			t.Fatalf("dispatch %d refused below capacity", i)
		}
	}
	if f.Dispatch(Request{}, 99) {
		t.Fatal("dispatch accepted beyond every member's bound")
	}
	if f.Refused() != 1 || f.Throttled() != 0 {
		t.Fatalf("refused=%d throttled=%d, want 1/0 (member rejection, not admission)", f.Refused(), f.Throttled())
	}
}

func TestFleetAdmissionGate(t *testing.T) {
	f, _ := newFleetOf(2, 10, KeyAffinity)
	f.SetMaxInFlight(3)
	accepted := 0
	for i := 0; i < 10; i++ {
		if f.Dispatch(Request{}, i) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Fatalf("accepted %d, want 3 (admission knob)", accepted)
	}
	if f.Throttled() != 7 || f.Refused() != 7 {
		t.Fatalf("throttled=%d refused=%d, want 7/7", f.Throttled(), f.Refused())
	}
	// Negative values clamp to zero: admission closed.
	f.SetMaxInFlight(-5)
	if f.MaxInFlight() != 0 {
		t.Fatalf("MaxInFlight=%d, want 0 after negative set", f.MaxInFlight())
	}
}

func TestRedispatchBypassesAdmission(t *testing.T) {
	f, ms := newFleetOf(2, 10, KeyAffinity)
	f.SetMaxInFlight(0) // admission closed
	if f.Dispatch(Request{}, 1) {
		t.Fatal("dispatch passed a closed admission gate")
	}
	if !f.Redispatch(Request{}, 2) {
		t.Fatal("redispatch throttled; evacuees were already admitted once")
	}
	if f.Redispatched() != 1 {
		t.Fatalf("redispatched=%d, want 1", f.Redispatched())
	}
	if len(ms[0].queue)+len(ms[1].queue) != 1 {
		t.Fatal("redispatched request not placed")
	}
}

func TestBeforeDispatchRunsFirst(t *testing.T) {
	f, _ := newFleetOf(1, 10, KeyAffinity)
	f.SetMaxInFlight(0)
	f.BeforeDispatch = func() { f.SetMaxInFlight(5) } // the controller reopens the knob
	if !f.Dispatch(Request{}, 1) {
		t.Fatal("BeforeDispatch knob update not visible to the admission gate")
	}
}

func TestFleetAccessors(t *testing.T) {
	f, ms := newFleetOf(3, 1, KeyAffinity)
	ms[1].alive = false
	ms[0].setLoad(2)
	ms[2].setLoad(3)
	if got := f.Len(); got != 3 {
		t.Fatalf("Len=%d, want 3", got)
	}
	if got := f.TotalLoad(); got != 5 {
		t.Fatalf("TotalLoad=%v, want 5", got)
	}
	if f.Instance(1).ID() != 1 {
		t.Fatal("Instance(1) returned the wrong member")
	}
	if f.MaxInFlight() != math.MaxInt {
		t.Fatal("new fleet's admission knob should be wide open")
	}
}

func TestFleetAddPanicsBeyondMask(t *testing.T) {
	f := NewFleet[int](KeyAffinity)
	for i := 0; i < maxMembers; i++ {
		m := &member{fake: fake{id: i, alive: true}, bound: 1}
		f.Add(m, 1, m.offer)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted a 257th member; retry masking covers 256 members in four bitset words")
		}
	}()
	m := &member{fake: fake{id: maxMembers, alive: true}, bound: 1}
	f.Add(m, 1, m.offer)
}

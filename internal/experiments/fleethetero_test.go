package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// TestFleetHeteroSpecMaxDerivation pins the heap → Spec.Max derivation: a
// bigger box must get a strictly deeper knob capacity, and the derivation on
// the uniform scenario's 768 MB boxes must leave real queueing room.
func TestFleetHeteroSpecMaxDerivation(t *testing.T) {
	prev := -1.0
	for _, heap := range fleetHeteroHeaps {
		max := heteroNodeMaxQueue(heap)
		if max <= prev {
			t.Fatalf("heteroNodeMaxQueue not strictly increasing: heap %d MB → %.0f after %.0f", heap/mb, max, prev)
		}
		if max <= 0 {
			t.Fatalf("heap %d MB derives a non-positive queue capacity %.0f", heap/mb, max)
		}
		prev = max
	}
	if got := heteroNodeMaxQueue(fleetHeapCapacity); got < 100 {
		t.Fatalf("768 MB box derives only %.0f queued MB of capacity", got)
	}
}

// TestFleetHeteroAcceptance is the heterogeneous fleet's acceptance
// criterion: with mixed heap capacities and per-node Spec.Max derived from
// each node's own heap, the coordinated controllers must meet the hard
// fleet-wide memory goal, no member may OOM, and no node's final bound may
// exceed its derived capacity — the property a uniform Spec.Max cannot give
// a mixed fleet. The whole result is pinned by the SHA-256 of its JSON (the
// run cache's encoding): a change that moves the run but keeps those
// properties must re-record it on purpose.
func TestFleetHeteroAcceptance(t *testing.T) {
	r := BuildFleetHetero()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "99b438360b08a45dbc592bc2e05be221369a69b008d534eab506d39b2c634864"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != golden {
		t.Errorf("heterogeneous FleetResult sha256 %s, recorded %s", got, golden)
	}
	if !r.ConstraintMet {
		t.Fatalf("heterogeneous fleet violated the hard memory goal: %s at %v", r.Violation, r.ViolatedAt)
	}
	if len(r.FinalBounds) != len(fleetHeteroHeaps) {
		t.Fatalf("expected %d final bounds, got %v", len(fleetHeteroHeaps), r.FinalBounds)
	}
	for i, bound := range r.FinalBounds {
		if cap := heteroNodeMaxQueue(fleetHeteroHeaps[i]); float64(bound) > cap {
			t.Errorf("node %d (heap %d MB): final bound %d exceeds derived capacity %.0f",
				i, fleetHeteroHeaps[i]/mb, bound, cap)
		}
	}
	if r.Throughput == 0 {
		t.Error("heterogeneous fleet completed no work")
	}
}

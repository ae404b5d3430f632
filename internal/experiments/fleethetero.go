package experiments

// The heterogeneous fleet: same control plane as the uniform fleet scenario,
// but the members have DIFFERENT heap capacities — a mixed hardware
// generation, the common shape of a real fleet. A uniform per-node Spec.Max
// is wrong in both directions there: sized for the small box it strands the
// big box's capacity, sized for the big box it lets the fleet-wide goal
// drive a small box past its own heap. Instead each node's memory guard gets
// a capacity-derived Max, so the N+1 coordinated controllers share the
// fleet-wide budget while every node stays inside its own skin.

// fleetHeteroHeaps are the member heap capacities: two hardware generations
// below the uniform scenario's 768 MB boxes and one above.
var fleetHeteroHeaps = []int64{512 * mb, 640 * mb, 768 * mb, 1024 * mb}

// heteroNodeMaxQueue derives a node's queue-knob capacity from its heap: the
// deepest queue of 1 MB requests the heap can hold once base residency and
// the noise-walk headroom are spoken for. This is the per-node Spec.Max the
// fleet-wide goal cannot see — the shared budget never tells one member that
// its OWN heap is smaller than its peers'.
func heteroNodeMaxQueue(heapCapacity int64) float64 {
	return float64((heapCapacity - rpcBaseHeap - rpcNoiseMax) / mb)
}

// BuildFleetHetero runs (or recalls) the heterogeneous fleet scenario.
func BuildFleetHetero() FleetResult {
	return memoKeyed("FLEET-HET", "smartconf", "fleet/hetero", fleetSeed,
		func() FleetResult { return RunFleetHeteroScenario() })
}

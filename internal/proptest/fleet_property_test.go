// Fleet property tests: every substrate's three-member fleet, run through a
// seeded loss/restart plan, must satisfy the fleet oracle set — the fleet
// drains, no request is lost across the instance loss (retry routing plus
// evacuation re-dispatch account for every submission), and routing replays
// identically. External test package for the same reason as the chaos
// properties: the harnesses live in internal/experiments.
//
// Replay a failure exactly: go test ./internal/proptest/ -run TestFleet -seed=N
// Long sweep (CI nightly):  go test ./internal/proptest/ -run TestFleet -quick=false
package proptest_test

import (
	"fmt"
	"testing"

	"smartconf/internal/experiments"
	"smartconf/internal/proptest"
)

func fleetSeeds() []int64 {
	if *seedFlag != 0 {
		return []int64{*seedFlag}
	}
	if *quickFlag {
		return []int64{1, 2}
	}
	seeds := make([]int64, 8)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// fleetPins are the recorded whole-run fingerprints of the quick seeds. The
// replay oracles compare a run only with its own replay, so a change that
// shifts every run alike passes them; the pins catch it.
var fleetPins = map[string]string{
	"RPC/seed=1":        "43e72575a60d0336",
	"RPC/seed=2":        "f29ecf71cd983f67",
	"LLM/seed=1":        "3d4f86961f181b9a",
	"LLM/seed=2":        "e2144ca2aeffef3a",
	"LLM-PREFIX/seed=1": "94f787b16fdc99c0",
	"LLM-PREFIX/seed=2": "451226afbb781425",
	"KV/seed=1":         "72cc28401a172854",
	"KV/seed=2":         "1279a3a2dd91176c",
}

// TestFleetProperties holds every substrate × seed fleet run to the
// conservation and drain oracles, then replays it and holds the pair to the
// stability oracles and, on the quick seeds, to the recorded fingerprint.
func TestFleetProperties(t *testing.T) {
	for _, sub := range experiments.FleetSubstrates() {
		for _, seed := range fleetSeeds() {
			name := fmt.Sprintf("%s/seed=%d", sub, seed)
			t.Run(name, func(t *testing.T) {
				a := experiments.RunFleetProperty(sub, seed)
				b := experiments.RunFleetProperty(sub, seed)
				t.Logf("fingerprint %s", a.Fingerprint)
				if want, ok := fleetPins[name]; ok && a.Fingerprint != want {
					t.Errorf("fingerprint %s, recorded %s", a.Fingerprint, want)
				}
				if a.Lost < 1 {
					t.Fatalf("fleet run lost %d instances; the plan must kill one", a.Lost)
				}
				for name, err := range map[string]error{
					"FleetDrains":    proptest.FleetDrains(&a),
					"NoRequestLost":  proptest.NoRequestLost(&a),
					"AffinityStable": proptest.AffinityStable(&a, &b),
					"FleetReplays":   proptest.FleetReplays(&a, &b),
				} {
					if err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
				if t.Failed() {
					t.Logf("counters: submitted=%d completed=%d refused=%d pending=%d",
						a.Submitted, a.Completed, a.Refused, a.Pending)
					t.Logf("replay: go test ./internal/proptest/ -run 'TestFleetProperties/%s' -seed=%d", sub, seed)
				}
			})
		}
	}
}

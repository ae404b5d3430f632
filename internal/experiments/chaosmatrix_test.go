package experiments

import (
	"strings"
	"testing"

	"smartconf/internal/declog"
	"smartconf/internal/experiments/engine"
	"smartconf/internal/proptest"
)

// The named fault catalog must leave every substrate's invariants intact:
// the matrix is the paper's robustness claim run through the injectors.
func TestChaosMatrixAllInvariantsHold(t *testing.T) {
	reports := ChaosMatrix(ChaosSeed)
	if want := len(ChaosFaults()) * len(ChaosSubstrates()); len(reports) != want {
		t.Fatalf("got %d reports, want %d", len(reports), want)
	}
	for i := range reports {
		r := &reports[i]
		if v := ChaosVerdict(r); v != "ok" {
			t.Errorf("%s/%s: %s", r.Substrate, r.Plan, v)
		}
		if r.Fingerprint == "" {
			t.Errorf("%s/%s: no fingerprint", r.Substrate, r.Plan)
		}
	}
	if t.Failed() {
		t.Logf("matrix:\n%s", RenderChaos(reports))
	}
}

// Repeated matrix builds must be served from the run cache: the second
// build may not execute a single new simulation.
func TestChaosMatrixServedFromCache(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	ChaosMatrix(ChaosSeed)
	exec1, _ := RunCacheStats()
	ChaosMatrix(ChaosSeed)
	exec2, hits := RunCacheStats()
	if exec2 != exec1 {
		t.Errorf("second matrix executed %d new runs, want 0", exec2-exec1)
	}
	if want := uint64(len(ChaosFaults()) * len(ChaosSubstrates())); hits < want {
		t.Errorf("second matrix took %d cache hits, want at least %d", hits, want)
	}
}

// The rendered artifact must be byte-identical at any engine worker count —
// same contract as the figure artifacts.
func TestChaosRenderByteIdenticalAcrossWorkerCounts(t *testing.T) {
	render := func(workers int) string {
		ResetRunCache()
		prev := engine.SetWorkers(workers)
		defer engine.SetWorkers(prev)
		return RenderChaos(ChaosMatrix(ChaosSeed))
	}
	seq := render(1)
	par := render(4)
	ResetRunCache()
	if seq != par {
		t.Fatalf("chaos artifact differs across worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "matrix fingerprint") {
		t.Fatalf("render missing fingerprint line:\n%s", seq)
	}
}

// A cached cell replayed from its coordinates must carry the exact
// trajectory fingerprint of a fresh, uncached execution.
func TestChaosCellCacheMatchesFreshRun(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	cell := ChaosCell{Substrate: "HB3813", Fault: "plant-shift", Seed: ChaosSeed}
	cached := RunChaosCell(cell)
	fresh := runChaosCell(cell, cell.newRig(), nil, declog.Perturb{})
	if err := proptest.Replays(&cached, &fresh); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"strings"
	"testing"

	"smartconf/internal/experiments"
	"smartconf/internal/experiments/engine"
)

// scaleTestRequests keeps the golden runs fast while still exercising most
// substrates' steady state (flush cycles, multiple jobs). dfs starts its
// first content summary only at write 200,000, so at this count it fires no
// events; the pinned 300k table in internal/experiments covers it.
const scaleTestRequests = 50_000

// TestScaleOutputByteIdenticalAcrossWorkerCounts extends the engine's
// headline guarantee to the raw-speed campaign: the -scale artifact is a pure
// function of the seed and request count, so worker-count changes (which the
// campaign ignores — substrates run sequentially for clean wall measurement)
// and cache state cannot move a byte of it.
func TestScaleOutputByteIdenticalAcrossWorkerCounts(t *testing.T) {
	prev := engine.SetWorkers(1)
	defer engine.SetWorkers(prev)
	experiments.ResetRunCache()
	seq := renderScale(scaleTestRequests)

	engine.SetWorkers(8)
	experiments.ResetRunCache()
	par := renderScale(scaleTestRequests)
	experiments.ResetRunCache()

	if seq != par {
		t.Errorf("-scale output differs between -parallel 1 and -parallel 8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "rpc") || !strings.Contains(seq, "mapred") {
		t.Errorf("-scale output is missing substrates:\n%s", seq)
	}
}

// TestScaleWarmDiskCacheRunsZeroSimulations: after one cold -scale build into
// -cachedir, a fresh process re-renders the campaign from disk alone — zero
// simulations — and the artifact bytes match.
func TestScaleWarmDiskCacheRunsZeroSimulations(t *testing.T) {
	experiments.ResetRunCache()
	defer func() {
		experiments.EnablePersistentRunCache("")
		experiments.ResetRunCache()
	}()
	if err := experiments.EnablePersistentRunCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}

	cold := renderScale(scaleTestRequests)
	execCold, _ := experiments.RunCacheStats()
	if execCold == 0 {
		t.Fatal("cold -scale build executed no simulations")
	}

	experiments.ResetRunCache()
	warm := renderScale(scaleTestRequests)
	exec, _ := experiments.RunCacheStats()
	loaded, _ := experiments.PersistentRunCacheStats()
	if exec != 0 {
		t.Errorf("warm -scale rebuild executed %d simulations, want 0", exec)
	}
	if loaded == 0 {
		t.Error("warm -scale rebuild loaded nothing from the disk cache")
	}
	if warm != cold {
		t.Errorf("warm -scale rebuild differs from the cold build:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
}

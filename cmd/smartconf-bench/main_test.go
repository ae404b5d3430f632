package main

import (
	"strings"
	"testing"

	"smartconf/internal/experiments"
	"smartconf/internal/experiments/engine"
)

// TestRegistryConsistent pins the three artifact registries (builders,
// render order, titles) to each other, so adding an artifact to one map
// cannot silently drop it from -list or the default run.
func TestRegistryConsistent(t *testing.T) {
	if len(order) != len(artifacts) {
		t.Errorf("order has %d ids, artifacts has %d", len(order), len(artifacts))
	}
	seen := map[string]bool{}
	for _, id := range order {
		if seen[id] {
			t.Errorf("artifact %q listed twice in order", id)
		}
		seen[id] = true
		if _, ok := artifacts[id]; !ok {
			t.Errorf("ordered artifact %q has no builder", id)
		}
		if titles[id] == "" {
			t.Errorf("artifact %q has no title", id)
		}
	}
	for id := range artifacts {
		if !seen[id] {
			t.Errorf("artifact %q is not in the render order", id)
		}
	}
	for id := range titles {
		if _, ok := artifacts[id]; !ok {
			t.Errorf("title for unknown artifact %q", id)
		}
	}
}

func TestUnknownArtifactListsValidIDs(t *testing.T) {
	msg := unknownArtifact("fig99")
	if !strings.Contains(msg, `"fig99"`) {
		t.Errorf("message does not echo the bad id: %q", msg)
	}
	for id := range artifacts {
		if !strings.Contains(msg, id) {
			t.Errorf("message does not list valid id %q", id)
		}
	}
}

// TestOutputByteIdenticalAcrossWorkerCounts is the engine's headline
// guarantee: every artifact the bench renders — figures, ablations, sweeps,
// extensions — is byte-identical whether the simulations ran sequentially or
// were shared among 2, 3 or 8 workers, and the run cache executes and hits
// the same number of runs at every count. Tables 2-5 are static study data
// and carry no simulations, so the comparison covers the simulation-backed
// artifacts.
func TestOutputByteIdenticalAcrossWorkerCounts(t *testing.T) {
	ids := make([]string, 0, len(order))
	for _, id := range order {
		switch id {
		case "table2", "table3", "table4", "table5":
			continue
		}
		ids = append(ids, id)
	}

	prev := engine.SetWorkers(1)
	defer engine.SetWorkers(prev)
	defer experiments.ResetRunCache()
	var seq string
	var seqExec, seqHits uint64
	for _, w := range []int{1, 2, 3, 8} {
		engine.SetWorkers(w)
		experiments.ResetRunCache()
		out, err := renderArtifacts(ids)
		if err != nil {
			t.Fatalf("render at %d workers: %v", w, err)
		}
		exec, hits := experiments.RunCacheStats()
		if w == 1 {
			seq, seqExec, seqHits = out, exec, hits
			continue
		}
		if exec != seqExec || hits != seqHits {
			t.Errorf("run cache at %d workers: %d executed, %d hits; at 1 worker: %d executed, %d hits",
				w, exec, hits, seqExec, seqHits)
		}
		if out != seq {
			i := 0
			for i < len(seq) && i < len(out) && seq[i] == out[i] {
				i++
			}
			lo, hi := i-120, i+120
			if lo < 0 {
				lo = 0
			}
			window := func(s string) string {
				if hi > len(s) {
					return s[lo:]
				}
				return s[lo:hi]
			}
			t.Errorf("output differs between -parallel 1 and -parallel %d at byte %d:\n--- workers=1 ---\n…%s…\n--- workers=%d ---\n…%s…",
				w, i, window(seq), w, window(out))
		}
	}
}

// TestWarmDiskCacheRebuildsEverythingWithoutSimulating is the persistent
// layer's full-artifact guarantee: after one cold build into -cachedir, a
// fresh process (emulated by dropping the in-memory cache) re-renders every
// simulation-backed artifact from disk alone — zero simulations executed —
// and the bytes match the cold run exactly.
func TestWarmDiskCacheRebuildsEverythingWithoutSimulating(t *testing.T) {
	ids := make([]string, 0, len(order))
	for _, id := range order {
		switch id {
		case "table2", "table3", "table4", "table5":
			continue
		}
		ids = append(ids, id)
	}

	experiments.ResetRunCache()
	defer func() {
		experiments.EnablePersistentRunCache("")
		experiments.ResetRunCache()
	}()
	if err := experiments.EnablePersistentRunCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}

	cold, err := renderArtifacts(ids)
	if err != nil {
		t.Fatalf("cold render: %v", err)
	}
	execCold, _ := experiments.RunCacheStats()

	experiments.ResetRunCache()
	warm, err := renderArtifacts(ids)
	if err != nil {
		t.Fatalf("warm render: %v", err)
	}
	exec, _ := experiments.RunCacheStats()
	loaded, _ := experiments.PersistentRunCacheStats()
	if exec != 0 {
		t.Errorf("warm rebuild executed %d simulations (cold executed %d), want 0", exec, execCold)
	}
	if loaded == 0 {
		t.Error("warm rebuild loaded nothing from the disk cache")
	}
	if warm != cold {
		t.Error("warm rebuild output differs from the cold build")
	}
}

func BenchmarkFigureLLMKV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		experiments.BuildFigureLLMKV()
	}
}

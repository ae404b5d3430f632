package main

import (
	"strings"
	"testing"

	"smartconf/internal/experiments"
	"smartconf/internal/experiments/engine"
)

func TestUnknownArtifactListsValidIDs(t *testing.T) {
	msg := unknownArtifact("fig99")
	if !strings.Contains(msg, `"fig99"`) {
		t.Errorf("message does not echo the bad id: %q", msg)
	}
	for _, a := range experiments.Artifacts() {
		if !strings.Contains(msg, a.ID) {
			t.Errorf("message does not list valid id %q", a.ID)
		}
	}
}

// TestOutputByteIdenticalAcrossWorkerCounts is the engine's headline
// guarantee: every artifact the bench renders — tables, figures, ablations,
// sweeps, extensions — is byte-identical whether the simulations ran
// sequentially or were shared among 2, 3 or 8 workers, and the run cache
// executes and hits the same number of runs at every count.
func TestOutputByteIdenticalAcrossWorkerCounts(t *testing.T) {
	prev := engine.SetWorkers(1)
	defer engine.SetWorkers(prev)
	defer experiments.ResetRunCache()
	var seq string
	var seqExec, seqHits uint64
	for _, w := range []int{1, 2, 3, 8} {
		engine.SetWorkers(w)
		experiments.ResetRunCache()
		out, err := renderArtifacts(experiments.Artifacts())
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
// artifact from disk alone — zero simulations executed — and the bytes match
// the cold run exactly.
func TestWarmDiskCacheRebuildsEverythingWithoutSimulating(t *testing.T) {
	experiments.ResetRunCache()
	defer func() {
		experiments.EnablePersistentRunCache("")
		experiments.ResetRunCache()
	}()
	if err := experiments.EnablePersistentRunCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}

	cold, err := renderArtifacts(experiments.Artifacts())
	if err != nil {
		t.Fatalf("cold render: %v", err)
	}
	execCold, _ := experiments.RunCacheStats()

	experiments.ResetRunCache()
	warm, err := renderArtifacts(experiments.Artifacts())
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

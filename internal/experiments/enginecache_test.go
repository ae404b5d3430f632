package experiments

import (
	"testing"

	"smartconf/internal/experiments/engine"
)

// The run cache must make every figure and ablation free after its first
// build: repeating a campaign may not execute a single new simulation.
func TestRunCacheDeduplicatesAcrossFigures(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()

	BuildFigure5()
	exec1, _ := RunCacheStats()
	if exec1 == 0 {
		t.Fatal("BuildFigure5 executed no simulations")
	}

	// Rebuilding the figure re-runs nothing.
	BuildFigure5()
	if exec2, _ := RunCacheStats(); exec2 != exec1 {
		t.Errorf("second BuildFigure5 executed %d new simulations", exec2-exec1)
	}

	// Figure 6 is the HB3813 row plus profile reuse — all cached already.
	BuildFigure6()
	if exec3, _ := RunCacheStats(); exec3 != exec1 {
		t.Errorf("BuildFigure6 executed %d new simulations after BuildFigure5", exec3-exec1)
	}

	// The pole and margin ablations introduce their own runs on the first
	// pass (sharing the automatically derived (pole, λ) point)...
	AblationPoles()
	AblationVirtualGoalMargin()
	exec4, _ := RunCacheStats()
	if exec4 == exec1 {
		t.Error("ablations executed no new simulations on their first pass")
	}
	// ...and nothing on the second.
	AblationPoles()
	AblationVirtualGoalMargin()
	if exec5, _ := RunCacheStats(); exec5 != exec4 {
		t.Errorf("repeated ablations executed %d new simulations", exec5-exec4)
	}

	// Every execution owns exactly one cache entry.
	if exec, _ := RunCacheStats(); int(exec) != engine.CacheLen() {
		t.Errorf("executed %d simulations but cache holds %d entries", exec, engine.CacheLen())
	}
}

// A cold fleet build executes each fleet run and each profile it needs once,
// and looks none of them up twice: six policies plus the fleet-memory and SLA
// profiles for the comparison, one run plus the fleet-memory profile for the
// heterogeneous fleet. A profile fetched once per node would show as hits.
func TestRunCacheColdFleetCounts(t *testing.T) {
	defer ResetRunCache()
	for _, c := range []struct {
		name       string
		build      func()
		runs, hits uint64
	}{
		{"BuildFleetComparison", func() { BuildFleetComparison() }, 8, 0},
		{"BuildFleetHetero", func() { BuildFleetHetero() }, 2, 0},
	} {
		ResetRunCache()
		c.build()
		if runs, hits := RunCacheStats(); runs != c.runs || hits != c.hits {
			t.Errorf("cold %s: %d runs, %d hits; want %d runs, %d hits", c.name, runs, hits, c.runs, c.hits)
		}
	}
}

// The cache key must separate runs that share a policy label: Figure 7's
// pinned-pole SmartConf run may not alias Figure 5's auto-pole run, and the
// per-seed MR2820 runs may not alias each other.
func TestRunCacheKeySeparation(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()

	BuildFigure5Row(HB3813Scenario())
	exec1, _ := RunCacheStats()
	f7 := BuildFigure7()
	exec2, _ := RunCacheStats()
	if exec2 == exec1 {
		t.Error("Figure 7 runs aliased the Figure 5 runs despite different workloads")
	}
	if f7.SmartConf.Tradeoff == f7.SinglePole.Tradeoff && f7.SmartConf.ConstraintMet == f7.SinglePole.ConstraintMet {
		t.Error("Figure 7 policies returned identical results — key aliasing suspected")
	}
}

// Sharing a figure's runs among any number of workers must produce
// byte-identical renderings to the sequential build, with the same run-cache
// counts. Forcing 2, 3 and 8 workers on any host also makes this the
// package's concurrency test under -race.
func TestParallelFigure5Deterministic(t *testing.T) {
	prev := engine.SetWorkers(1)
	defer engine.SetWorkers(prev)
	defer ResetRunCache()

	var seq string
	var seqExec, seqHits uint64
	for _, w := range []int{1, 2, 3, 8} {
		engine.SetWorkers(w)
		ResetRunCache()
		out := RenderFigure5(BuildFigure5())
		exec, hits := RunCacheStats()
		if w == 1 {
			seq, seqExec, seqHits = out, exec, hits
			continue
		}
		if exec != seqExec || hits != seqHits {
			t.Errorf("run cache at %d workers: %d executed, %d hits; at 1 worker: %d executed, %d hits",
				w, exec, hits, seqExec, seqHits)
		}
		if out != seq {
			t.Errorf("Figure 5 at %d workers differs from sequential:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", w, seq, w, out)
		}
	}
}

// The profiling sweep's fan-out must merge per-setting samples into the same
// Profile the sequential campaign produced.
func TestParallelProfileDeterministic(t *testing.T) {
	prev := engine.SetWorkers(1)
	defer engine.SetWorkers(prev)

	ResetRunCache()
	seq := ProfileHB3813()

	engine.SetWorkers(8)
	ResetRunCache()
	par := ProfileHB3813()
	ResetRunCache()

	if len(seq.Settings) != len(par.Settings) {
		t.Fatalf("setting count differs: %d vs %d", len(seq.Settings), len(par.Settings))
	}
	for i := range seq.Settings {
		if seq.Settings[i].Setting != par.Settings[i].Setting {
			t.Fatalf("setting %d differs: %v vs %v", i, seq.Settings[i].Setting, par.Settings[i].Setting)
		}
		if len(seq.Settings[i].Samples) != len(par.Settings[i].Samples) {
			t.Fatalf("sample count at setting %v differs", seq.Settings[i].Setting)
		}
		for j, v := range seq.Settings[i].Samples {
			if par.Settings[i].Samples[j] != v {
				t.Fatalf("sample [%d][%d] differs: %v vs %v", i, j, v, par.Settings[i].Samples[j])
			}
		}
	}
}

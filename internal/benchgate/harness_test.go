package benchgate

import (
	"runtime/debug"
	"testing"

	"smartconf/internal/experiments"
	"smartconf/internal/experiments/engine"
)

// The harness budgets: where the whole-run gate holds the -scale request
// paths at zero, these hold each paper harness to the allocations
// BENCH_engine.json records for one of its runs. A simulation run's
// allocations must not grow with how long it simulates, so an allocation
// per control tick, probe sample or lock hold shows up here as hundreds of
// extra allocations per run. The figure runs are each issue's Scenario.Run
// under its non-optimal static, the run Figure 5 plots as a bar (MR2820's
// is its five-seed race, so the run cache is dropped first and the engine
// runs it on one lane); the chaos cells are each substrate's seed-generated
// plan at the matrix seed, run past the cache; the fleet run is one
// uncached RunFleetScenario under Static(90), a point of the fleet's static
// grid.
func TestHarnessAllocationsVsBaseline(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts and timing")
	}
	if testing.Short() {
		t.Skip("benchmark gate skipped in -short mode")
	}
	defer engine.SetWorkers(engine.SetWorkers(1))

	type harnessRun struct {
		key string
		run func()
	}
	var runs []harnessRun
	for _, sc := range append(experiments.Scenarios(), experiments.LLMKVScenario()) {
		runs = append(runs, harnessRun{"smartconf/internal/experiments.FigureRun/" + sc.ID, func() {
			experiments.ResetRunCache()
			sc.Run(experiments.Static(sc.NonOptimal))
		}})
	}
	for _, sub := range experiments.ChaosSubstrates() {
		runs = append(runs, harnessRun{"smartconf/internal/experiments.ChaosCell/" + sub, func() {
			experiments.RunChaosProperty(sub, experiments.ChaosSeed)
		}})
	}
	fleetStatic := experiments.Static(90)
	runs = append(runs, harnessRun{"smartconf/internal/experiments.FleetRun/" + fleetStatic.String(), func() {
		experiments.RunFleetScenario(fleetStatic)
	}})

	// The collector stays off while the harnesses run: a collection
	// allocates runtime-internal objects (sudogs, mark workers) and empties
	// fmt's printer pool, so counts would vary with GC timing. The thirteen
	// harnesses allocate a few tens of megabytes in all.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	base := loadBaseline(t)
	for _, h := range runs {
		allocs := testing.AllocsPerRun(3, h.run)
		entry, ok := base.Benchmarks[h.key]
		switch {
		case !ok || entry.AllocsPerOp == nil:
			t.Errorf("%s: harness budget has no allocs_per_op entry — record one (measured %.0f)", h.key, allocs)
		case allocs > float64(*entry.AllocsPerOp):
			t.Errorf("%s: %.0f allocs per run, budget %d — an allocation that grows with simulated time crept into the harness (bump the budget only if intentional)",
				h.key, allocs, *entry.AllocsPerOp)
		default:
			t.Logf("%s: %.0f allocs per run (budget %d)", h.key, allocs, *entry.AllocsPerOp)
		}
	}
}

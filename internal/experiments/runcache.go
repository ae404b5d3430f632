package experiments

import (
	"fmt"

	"smartconf/internal/core"
	"smartconf/internal/experiments/engine"
	"smartconf/internal/sim"
)

// This file is the experiments-side adapter onto the run engine: every
// deterministic simulation the harness performs goes through a memoized,
// keyed entry point here, so Figures 5-8, the ablations and the extensions
// never simulate the same (scenario, policy, seed, schedule) twice, and the
// independent runs of a figure or sweep fan out across the worker pool.

// simQueueHint pre-sizes scenario event queues. A burst's pending arrivals
// are one series element in the heap, so across every artifact the deepest
// scenario heap peaks at 336 elements; 512 slots absorb that without growth
// reallocations.
const simQueueHint = 512

// newScenarioSim is the simulator constructor the scenario drivers use.
func newScenarioSim() *sim.Simulation { return sim.NewWithCapacity(simQueueHint) }

// policyKey renders a Policy for use in a cache key. Unlike Policy.String it
// encodes FixedPole, which Figure 7 varies while the label stays the same —
// dropping it would alias the pinned-pole SmartConf run with the Figure 5
// auto-pole run.
func policyKey(p Policy) string {
	if p.FixedPole != 0 {
		return fmt.Sprintf("%s|pole=%g", p, p.FixedPole)
	}
	return p.String()
}

// runCached executes sc.Run(p) at most once process-wide for the scenario's
// standard workload and seed (both are fixed inside Run, so the scenario ID
// and policy identify the run completely).
func runCached(sc Scenario, p Policy) Result {
	return engine.Memo(engine.Key{Scenario: sc.ID, Policy: policyKey(p)},
		func() Result { return sc.Run(p) })
}

// memoKeyed memoizes an arbitrary typed run under the full
// (scenario, policy, seed, schedule) tuple — the generic adapter behind
// drivers whose cached value is not a plain Result (ablation rows,
// extension summaries, whole figures). Keeping every engine.Memo call in
// this file is the cachekey invariant smartconf-vet enforces: the key
// discipline lives in one audited place instead of at each driver.
func memoKeyed[T any](scenario, policy, schedule string, seed int64, run func() T) T {
	return engine.Memo(engine.Key{Scenario: scenario, Policy: policy, Seed: seed, Schedule: schedule}, run)
}

// memoProfile memoizes a profiling campaign. Profiles are read-only after
// construction (value-receiver accessors; publicProfile copies the samples),
// so one core.Profile is safely shared by every consumer.
func memoProfile(name string, f func() core.Profile) core.Profile {
	return engine.Memo(engine.Key{Scenario: name, Schedule: "profile"}, f)
}

// profileSweep fans a profiling campaign's per-setting runs across the
// worker pool. Each pinned setting runs in its own simulation recording into
// a private collector; samples are then merged in settings order, which
// reproduces the sequential campaign's Profile exactly (samples within one
// recorded setting keep their temporal order, and Collector.Profile sorts
// across settings).
func profileSweep(settings []float64, runSetting func(setting float64, record func(setting, measurement float64))) core.Profile {
	partials := engine.Map(len(settings), func(i int) core.Profile {
		col := core.NewCollector()
		runSetting(settings[i], col.Record)
		return col.Profile()
	})
	merged := core.NewCollector()
	for _, p := range partials {
		for _, sp := range p.Settings {
			for _, v := range sp.Samples {
				merged.Record(sp.Setting, v)
			}
		}
	}
	return merged.Profile()
}

// ScenarioVersion stamps every persistent cache entry with the generation of
// the scenario code that computed it. Bump it whenever a change to the
// scenarios, substrates, controller, workloads or seeds alters any run's
// result — stale-stamped entries become invisible and everything recomputes.
// (Deleting the cache directory has the same effect.)
const ScenarioVersion = "smartconf-scenarios/2"

// EnablePersistentRunCache layers a cross-process disk cache (rooted at dir)
// beneath the in-memory run cache, keyed by ScenarioVersion: a warm rebuild
// of every figure and ablation in a fresh process executes zero simulations
// and renders byte-identically at any worker count. An empty dir disables
// the layer. Returns any directory-creation error; the layer stays off on
// failure.
func EnablePersistentRunCache(dir string) error {
	return engine.EnableDiskCache(dir, ScenarioVersion)
}

// PersistentRunCacheStats reports (runs loaded from disk this process,
// results written to disk) — the observability behind smartconf-bench's
// cache summary line.
func PersistentRunCacheStats() (loaded uint64, written uint64) {
	loaded = engine.DiskLoads()
	_, _, written, _ = engine.DiskStats()
	return loaded, written
}

// ResetRunCache drops every memoized run and profile. The golden
// byte-identity test and the benchmarks use it to force fresh simulations.
// The persistent layer, when enabled, is unaffected: only the in-memory
// single-flight map and its counters clear.
func ResetRunCache() { engine.ResetCache() }

// RunCacheStats reports (simulations executed, cache hits) since the last
// reset.
func RunCacheStats() (executed, hits uint64) { return engine.Stats() }

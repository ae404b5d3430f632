package experiments

import "lint.test/cachekey/engine"

// runCached and memoKeyed are the adapter layer: the only code allowed to
// talk to engine.Memo directly, and the one place keys are assembled — so
// this whole file is exempt from the cachekey analyzer by name.
func runCached(sc Scenario, p Policy) Result {
	return engine.Memo(engine.Key{Scenario: sc.ID, Policy: "p", Seed: 0, Schedule: "default"}, func() Result {
		return sc.Run(p)
	})
}

func memoKeyed[T any](scenario, policy, schedule string, seed int64, run func() T) T {
	return engine.Memo(engine.Key{Scenario: scenario, Policy: policy, Seed: seed, Schedule: schedule}, run)
}

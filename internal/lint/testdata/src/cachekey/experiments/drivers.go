package experiments

import "lint.test/cachekey/engine"

// GoodDriver routes through the adapter layer — the sanctioned shape.
func GoodDriver(sc Scenario, p Policy) Result {
	return runCached(sc, p)
}

// GoodMemo runs a scenario entry point inside a memoized adapter closure:
// the closure IS the cached computation, so the call is legitimate.
func GoodMemo(p Policy) Result {
	return memoKeyed("HB3813", "fixed", "sweep", 0, func() Result { return RunHB3813(p) })
}

func BadDirectRun(sc Scenario, p Policy) Result {
	return sc.Run(p) // want "direct Scenario.Run call"
}

func BadEntryPoint(sc Scenario) Result {
	return RunHB3813(Policy{Level: 1}) // want "direct call to scenario entry point RunHB3813"
}

func BadMemo(p Policy) Result {
	return engine.Memo(engine.Key{Scenario: "HB3813"}, func() Result { return RunHB3813(p) }) // want "direct engine.Memo call outside runcache.go" "direct call to scenario entry point RunHB3813"
}

func BadKey() engine.Key {
	return engine.Key{Policy: "fixed", Seed: 1} // want "engine.Key literal without a Scenario component"
}

// SuppressedDriver proves the escape hatch for deliberate cache bypasses.
func SuppressedDriver(sc Scenario, p Policy) Result {
	//smartconf:allow cachekey -- one-off diagnostic run, deliberately uncached
	return sc.Run(p)
}

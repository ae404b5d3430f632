// Package smartconf automatically sets and dynamically adjusts
// performance-sensitive configurations (PerfConfs) to meet user-declared
// performance constraints, implementing the framework from
//
//	Shu Wang, Chi Li, William Sentosa, Henry Hoffmann, Shan Lu,
//	Achmad Imam Kistijantoro.
//	"Understanding and Auto-Adjusting Performance-Sensitive Configurations."
//	ASPLOS 2018. https://doi.org/10.1145/3173162.3173206
//
// # The problem
//
// Server systems expose hundreds of numeric knobs — queue bounds, buffer
// sizes, flush watermarks, admission thresholds — whose proper values depend
// on workload and environment dynamics no static setting can track. Set a
// queue bound too high and a traffic shift triggers an out-of-memory crash;
// set it low enough to be safe everywhere and throughput is sacrificed all
// the time.
//
// SmartConf splits the responsibility three ways (the paper's Table 1):
// developers declare WHICH configuration is dynamically adjustable and WHAT
// metric it affects; users declare the CONSTRAINT on that metric ("memory
// ≤ 495 MB, hard"); and a per-configuration feedback controller — synthesized
// automatically from a short profiling run — decides the actual setting,
// continuously.
//
// # Developer workflow
//
// 1. Provide a sensor for the metric (anything that yields a float64).
//
// 2. Describe the configuration either programmatically with a Spec and a
// Profile, or with the two SmartConf files (a developer-owned system file
// binding confs to metrics, and a user-owned goals file) loaded through a
// Manager.
//
// 3. Replace every read of the configuration value with the paper's
// setPerf/getConf pair:
//
//	sc.SetPerf(memSensor.Value())  // feed the latest measurement
//	limit := sc.Conf()             // controller-adjusted setting
//
// For configurations that bound some other variable (a queue's maximum
// size bounding the queue's actual size), use IndirectConf and report the
// deputy's current value alongside the measurement:
//
//	sc.SetPerf(memSensor.Value(), queue.Len())
//	queue.SetLimit(sc.Conf())
//
// # Decision log
//
// Every decision can be recorded: build the configuration with
// WithDecisionLog(NewDecisionLog(n)) and the log keeps its latest n
// Decisions — the sensed value, the setpoint error, the pole, the raw and
// the applied setting, and why they differ — in a ring that allocates
// nothing per decision. log.Snapshot returns them oldest-first and
// log.Sources names the configuration behind each, which answers "who set
// this knob, and why?" after the fact. One log may serve every
// configuration of a process; they then take turns deciding.
//
// # Guarantees
//
// Controllers use the update law c' = c + (1−p)/α·e with a pole p derived
// from profiling variability, yielding convergence whenever the real system
// deviates from the profiled model by less than three standard deviations
// (§5.6 of the paper). Hard goals additionally get a virtual goal placed
// (1−λ) below the constraint and a context-aware second pole, making
// overshoot of the real constraint improbable even under abrupt
// disturbances. Multiple configurations registered on one super-hard goal
// coordinate by splitting the observed error evenly (interaction factor N).
//
// These are statistical, not absolute, guarantees — see §6.6 of the paper
// for limitations (non-monotonic plants and pure-optimality goals are out of
// scope; machine learning fits those better).
package smartconf

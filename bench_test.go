// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus micro-benchmarks of the controller hot path. One benchmark per
// artifact:
//
//	go test -bench=BenchmarkTable2StudySuite   # or any other single artifact
//	go test -bench=. -benchmem                 # everything
//
// The table/figure benchmarks run the full deterministic simulation behind
// each artifact, so their ns/op measures the cost of regenerating the
// artifact (milliseconds for the study tables, ~0.1–1 s for the evaluation
// sweeps that the paper spent hours of testbed time on).
package smartconf_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"smartconf"
	"smartconf/internal/experiments"
	"smartconf/internal/experiments/engine"
	"smartconf/internal/study"
)

// ---- Tables 2–5: the empirical study ----

func BenchmarkTable2StudySuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := study.BuildTable2()
		if t.PerfIssues.Total() != 80 {
			b.Fatal("study drifted from the paper")
		}
	}
}

func BenchmarkTable3PatchTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := study.BuildTable3()
		if t.Categories[study.FixPoorDefault].Total() != 24 {
			b.Fatal("study drifted from the paper")
		}
	}
}

func BenchmarkTable4Impact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := study.BuildTable4()
		if t.Indirect.Total() != 45 {
			b.Fatal("study drifted from the paper")
		}
	}
}

func BenchmarkTable5Setting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := study.BuildTable5()
		if t.Factors[study.Dynamic].Total() != 72 {
			b.Fatal("study drifted from the paper")
		}
	}
}

// ---- Table 6 and Figure 5: the benchmark suite and its headline result ----

func BenchmarkTable6Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.RenderTable6()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure5Tradeoffs regenerates the full six-issue comparison
// (every static sweep plus SmartConf, with profiling) at the default worker
// count — all CPUs. Compare against BenchmarkFigure5TradeoffsSequential for
// the experiment engine's fan-out speedup.
func BenchmarkFigure5Tradeoffs(b *testing.B) {
	benchmarkFigure5AtWorkers(b, runtime.GOMAXPROCS(0))
}

// BenchmarkFigure5TradeoffsSequential is the same regeneration pinned to one
// worker — the pre-engine sequential baseline.
func BenchmarkFigure5TradeoffsSequential(b *testing.B) {
	benchmarkFigure5AtWorkers(b, 1)
}

func benchmarkFigure5AtWorkers(b *testing.B, workers int) {
	prev := engine.SetWorkers(workers)
	defer engine.SetWorkers(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		rows := experiments.BuildFigure5()
		if len(rows) != 6 {
			b.Fatal("missing scenarios")
		}
	}
	b.StopTimer()
	experiments.ResetRunCache()
}

// BenchmarkFigure5DiskCacheCold measures the full Figure 5 rebuild while
// populating the persistent cache: the one-time cost a -cachedir user pays.
func BenchmarkFigure5DiskCacheCold(b *testing.B) {
	benchmarkFigure5Disk(b, false)
}

// BenchmarkFigure5DiskCacheWarm is the payoff: the same rebuild with every
// run already on disk and the in-memory cache dropped each iteration, as a
// fresh `smartconf-bench -cachedir` process would see it. Zero simulations
// execute; ns/op is pure decode + render.
func BenchmarkFigure5DiskCacheWarm(b *testing.B) {
	benchmarkFigure5Disk(b, true)
}

func benchmarkFigure5Disk(b *testing.B, warm bool) {
	experiments.ResetRunCache()
	defer func() {
		experiments.EnablePersistentRunCache("")
		experiments.ResetRunCache()
	}()
	if err := experiments.EnablePersistentRunCache(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	if warm {
		experiments.BuildFigure5() // populate the disk outside the timer
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			// Point the layer at an empty directory so every iteration
			// simulates and stores, rather than reloading iteration 1's files.
			b.StopTimer()
			if err := experiments.EnablePersistentRunCache(b.TempDir()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		experiments.ResetRunCache()
		rows := experiments.BuildFigure5()
		if len(rows) != 6 {
			b.Fatal("missing scenarios")
		}
	}
	b.StopTimer()
	if warm {
		if exec, _ := experiments.RunCacheStats(); exec != 0 {
			b.Fatalf("warm iteration executed %d simulations", exec)
		}
	}
}

// Per-issue Figure 5 rows, for quicker single-issue regeneration.
func benchFigure5Row(b *testing.B, id string) {
	sc, ok := experiments.ScenarioByID(id)
	if !ok {
		b.Fatalf("unknown scenario %s", id)
	}
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		row := experiments.BuildFigure5Row(sc)
		if !row.Bars[0].ConstraintMet {
			b.Fatalf("%s: SmartConf violated its constraint", id)
		}
	}
}

func BenchmarkFigure5_CA6059(b *testing.B) { benchFigure5Row(b, "CA6059") }
func BenchmarkFigure5_HB2149(b *testing.B) { benchFigure5Row(b, "HB2149") }
func BenchmarkFigure5_HB3813(b *testing.B) { benchFigure5Row(b, "HB3813") }
func BenchmarkFigure5_HB6728(b *testing.B) { benchFigure5Row(b, "HB6728") }
func BenchmarkFigure5_HD4995(b *testing.B) { benchFigure5Row(b, "HD4995") }
func BenchmarkFigure5_MR2820(b *testing.B) { benchFigure5Row(b, "MR2820") }

// ---- Figures 6–8 ----

func BenchmarkFigure6CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		f := experiments.BuildFigure6()
		if !f.SmartConf.ConstraintMet {
			b.Fatal("SmartConf violated the constraint")
		}
	}
}

func BenchmarkFigure7Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		f := experiments.BuildFigure7()
		if !f.SmartConf.ConstraintMet || f.SinglePole.ConstraintMet || f.NoVirtualGoal.ConstraintMet {
			b.Fatal("ablation outcome drifted from the paper")
		}
	}
}

func BenchmarkFigure8Interacting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		f := experiments.BuildFigure8()
		if f.OOM {
			b.Fatal("interacting controllers OOMed")
		}
	}
}

// ---- Table 7 ----

func BenchmarkTable7LoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CountIntegrationLoC()
		if err != nil || len(rows) < 6 { // six paper issues + any extensions
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

// ---- Micro-benchmarks: the controller hot path ----

// BenchmarkControllerUpdate measures one setPerf+getConf cycle — the cost
// SmartConf adds to every instrumented call site.
func BenchmarkControllerUpdate(b *testing.B) {
	profile := smartconf.NewProfile()
	for _, s := range []float64{40, 80, 120, 160} {
		for i := 0; i < 10; i++ {
			profile.Add(s, 2*s+100+float64(i%5))
		}
	}
	sc, err := smartconf.New(smartconf.Spec{
		Name: "bench", Metric: "m", Goal: 500, Hard: true, Max: 1e9,
	}, profile)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.SetPerf(float64(200 + i%100))
		_ = sc.Conf()
	}
}

// BenchmarkIndirectUpdate is the same cycle through the indirect-conf path.
func BenchmarkIndirectUpdate(b *testing.B) {
	benchIndirectUpdate(b, newBenchIndirect(b, "bench"))
}

// BenchmarkIndirectUpdateLogged is BenchmarkIndirectUpdate with a 4096-record
// decision log attached, the shape of a logged admission: the decision and
// its record share the log's critical section.
func BenchmarkIndirectUpdateLogged(b *testing.B) {
	benchIndirectUpdate(b, newBenchIndirect(b, "bench", smartconf.WithDecisionLog(smartconf.NewDecisionLog(4096))))
}

// BenchmarkIndirectUpdateOwnLogParallel runs BenchmarkIndirectUpdateLogged
// on every P at once, each goroutine deciding on its own IndirectConf with
// its own log. ns/op is per decision across all goroutines.
func BenchmarkIndirectUpdateOwnLogParallel(b *testing.B) {
	benchIndirectUpdateParallel(b, func() *smartconf.DecisionLog { return smartconf.NewDecisionLog(4096) })
}

// BenchmarkIndirectUpdateSharedLogParallel is
// BenchmarkIndirectUpdateOwnLogParallel with one log shared by every
// configuration, the shape of a process that ships one envelope: the
// configurations serialize whole decisions on the log's mutex.
func BenchmarkIndirectUpdateSharedLogParallel(b *testing.B) {
	shared := smartconf.NewDecisionLog(4096)
	benchIndirectUpdateParallel(b, func() *smartconf.DecisionLog { return shared })
}

// newBenchIndirect builds the hard-goal IndirectConf the indirect-update
// benchmarks decide on.
func newBenchIndirect(b *testing.B, name string, opts ...smartconf.Option) *smartconf.IndirectConf {
	b.Helper()
	profile := smartconf.NewProfile()
	for _, s := range []float64{40, 80, 120, 160} {
		for i := 0; i < 10; i++ {
			profile.Add(s, 2*s+100+float64(i%5))
		}
	}
	ic, err := smartconf.NewIndirect(smartconf.Spec{
		Name: name, Metric: "m", Goal: 500, Hard: true, Max: 1e9,
	}, profile, nil, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return ic
}

func benchIndirectUpdate(b *testing.B, ic *smartconf.IndirectConf) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic.SetPerf(float64(200+i%100), float64(i%80))
		_ = ic.Conf()
	}
}

// benchIndirectUpdateParallel gives each of RunParallel's GOMAXPROCS
// goroutines its own logged IndirectConf, built before the timer starts.
func benchIndirectUpdateParallel(b *testing.B, logFor func() *smartconf.DecisionLog) {
	confs := make([]*smartconf.IndirectConf, runtime.GOMAXPROCS(0))
	for i := range confs {
		confs[i] = newBenchIndirect(b, fmt.Sprintf("bench-%d", i), smartconf.WithDecisionLog(logFor()))
	}
	var next atomic.Int32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ic := confs[next.Add(1)-1]
		for i := 0; pb.Next(); i++ {
			ic.SetPerf(float64(200+i%100), float64(i%80))
			_ = ic.Conf()
		}
	})
}

// BenchmarkSynthesis measures full controller synthesis from a 40-sample
// profile (the constructor-time cost).
func BenchmarkSynthesis(b *testing.B) {
	profile := smartconf.NewProfile()
	for _, s := range []float64{40, 80, 120, 160} {
		for i := 0; i < 10; i++ {
			profile.Add(s, 2*s+100+float64(i%7))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smartconf.New(smartconf.Spec{
			Name: "bench", Metric: "m", Goal: 500, Hard: true, Max: 1e9,
		}, profile); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations beyond the paper (design-choice benches) ----

func BenchmarkAblationPoles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		rows := experiments.AblationPoles()
		for _, r := range rows {
			if !r.ConstraintMet {
				b.Fatalf("pole %v violated the constraint", r.Pole)
			}
		}
	}
}

func BenchmarkAblationVirtualGoalMargin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		rows := experiments.AblationVirtualGoalMargin()
		if rows[0].ConstraintMet { // λ = 0 must fail
			b.Fatal("no-margin run unexpectedly satisfied the constraint")
		}
	}
}

func BenchmarkAblationInteraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		a := experiments.AblationInteractionFactor()
		if a.WithFactor.OOM {
			b.Fatal("coordinated controllers OOMed")
		}
	}
}

func BenchmarkAblationAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		a := experiments.AblationAdaptiveModel()
		if !a.Adaptive.ConstraintMet {
			b.Fatal("adaptive run violated the constraint")
		}
	}
}

func BenchmarkAblationProfilingDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		rows := experiments.AblationProfilingDepth()
		if !rows[0].ConstraintMet {
			b.Fatal("full-profile run violated the constraint")
		}
	}
}

// BenchmarkRobustnessSweep runs the §6.1 wide-workload sweep: one profiled
// controller against 54 unseen workloads.
func BenchmarkRobustnessSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		for _, c := range experiments.RunRobustnessSweep() {
			if !c.ConstraintMet {
				b.Fatalf("constraint violated: %+v", c)
			}
		}
	}
}

// BenchmarkBackendAIMD compares the synthesized controller against the AIMD
// heuristic baseline.
func BenchmarkBackendAIMD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		c := experiments.AblationBackendAIMD()
		if !c.SmartConf.ConstraintMet {
			b.Fatal("SmartConf violated its constraint")
		}
	}
}

// ---- Extensions beyond the paper ----

func BenchmarkExtensionSLA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		r := experiments.RunSLAScenario(experiments.SmartConf())
		if !r.ConstraintMet {
			b.Fatalf("SLA missed: p99 = %.2fs", r.P99)
		}
	}
}

func BenchmarkExtensionDistributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		r := experiments.RunDistributedHB3813(4)
		if !r.ConstraintMet {
			b.Fatalf("violations: %v", r.Violations)
		}
	}
}

// BenchmarkFleetComparison regenerates the full fleet artifact: profiling,
// the SmartConf fleet and every static fleet, each a 4-instance run under
// skewed load with a seeded instance loss and restart.
func BenchmarkFleetComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		results := experiments.BuildFleetComparison()
		for _, r := range results {
			if r.Policy.Kind == experiments.SmartConfPolicy && !experiments.FleetQualifies(r) {
				b.Fatalf("SmartConf fleet missed a goal: %s", experiments.RenderFleet(results))
			}
		}
	}
}

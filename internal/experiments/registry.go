package experiments

import "smartconf/internal/study"

// An Artifact is one table or figure of the evaluation, as smartconf-bench
// renders it.
type Artifact struct {
	ID     string
	Title  string
	Render func() (string, error)
}

// Artifacts returns the evaluation in render order. smartconf-bench's
// default run, -only and -list all read it. It is a function, not a
// package-level table, so a program that imports this package without
// rendering the artifacts does not link every render (Table 7's source
// scan among them).
func Artifacts() []Artifact {
	return []Artifact{
		{"table2", "Table 2: empirical study suite", infallible(func() string { return study.BuildTable2().Render() })},
		{"table3", "Table 3: types of PerfConf patches", infallible(func() string { return study.BuildTable3().Render() })},
		{"table4", "Table 4: how PerfConfs affect performance", infallible(func() string { return study.BuildTable4().Render() })},
		{"table5", "Table 5: how to set PerfConfs", infallible(func() string { return study.BuildTable5().Render() })},
		{"table6", "Table 6: benchmark suite", infallible(RenderTable6)},
		{"fig5", "Figure 5: trade-off comparison", infallible(func() string { return RenderFigure5(BuildFigure5()) })},
		{"fig6", "Figure 6: HB3813 case study", infallible(func() string { return RenderFigure6(BuildFigure6()) })},
		{"fig7", "Figure 7: controller ablations", infallible(func() string { return RenderFigure7(BuildFigure7()) })},
		{"fig8", "Figure 8: interacting PerfConfs", infallible(func() string { return RenderFigure8(BuildFigure8()) })},
		{"table7", "Table 7: integration effort", RenderTable7},
		{"abl-pole", "Ablation: pole sensitivity (beyond the paper)",
			infallible(func() string { return RenderAblationPoles(AblationPoles()) })},
		{"abl-margin", "Ablation: virtual-goal margin (beyond the paper)",
			infallible(func() string { return RenderAblationMargins(AblationVirtualGoalMargin()) })},
		{"abl-interact", "Ablation: interaction factor (beyond the paper)",
			infallible(func() string { return RenderAblationInteraction(AblationInteractionFactor()) })},
		{"abl-adaptive", "Ablation: adaptive model, the paper's §7 direction",
			infallible(func() string { return RenderAblationAdaptive(AblationAdaptiveModel()) })},
		{"abl-profiling", "Ablation: profiling depth (§6.1 robustness claim)",
			infallible(func() string { return RenderAblationProfilingDepth(AblationProfilingDepth()) })},
		{"robustness", "Robustness: one controller across 54 unseen workloads (§6.1)",
			infallible(func() string { return RenderRobustness(RunRobustnessSweep()) })},
		{"abl-aimd", "Baseline: SmartConf vs hand-tuned AIMD heuristic",
			infallible(func() string { return RenderBackendComparison(AblationBackendAIMD()) })},
		{"ext-sla", "Extension: p99-latency SLA goal",
			infallible(func() string { return RenderSLA(BuildSLAComparison()) })},
		{"ext-dist", "Extension: per-node controllers in a 4-node cluster",
			infallible(func() string { return RenderDistributed(RunDistributedHB3813(4)) })},
		{"llmkv", "Extension: LLM serving, KV-cache memory vs batched tokens",
			infallible(func() string { return RenderFigureLLMKV(BuildFigureLLMKV()) })},
		{"chaos", "Chaos: fault-injection matrix, invariant verdicts per substrate",
			infallible(func() string { return RenderChaos(ChaosMatrix(ChaosSeed)) })},
		{"fleet", "Fleet: coordinated per-node controllers vs static fleets under skew and instance loss",
			infallible(func() string { return RenderFleet(BuildFleetComparison()) })},
	}
}

// infallible adapts a render that cannot fail.
func infallible(render func() string) func() (string, error) {
	return func() (string, error) { return render(), nil }
}

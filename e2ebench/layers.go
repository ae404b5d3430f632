package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// artifactIDs are the simulation-backed smartconf-bench artifacts in
// registry order (Table 7, which counts this repository's own source lines,
// and the static Tables 2-5 are left out).
var artifactIDs = []string{
	"table6", "fig5", "fig6", "fig7", "fig8",
	"abl-pole", "abl-margin", "abl-interact", "abl-adaptive", "abl-profiling",
	"robustness", "abl-aimd", "ext-sla", "ext-dist", "llmkv", "chaos", "fleet",
}

// layerMetricUnits lists every per-layer metric a traced run prints, on
// every workload; a layer the workload bypasses reads 0.
func layerMetricUnits() [][2]string {
	m := [][2]string{
		{"workload.ns_per_req", "ns"},
		{"sim.ns_per_req", "ns"},
		{"sim.events_per_req", "events/req"},
		{"sim.peak_pending", "count"},
		{"rpcserver.offer_ns", "ns"},
		{"rpcserver.rejected_frac", "ratio"},
		{"smartconf.decide_ns", "ns"},
		{"smartconf.decisions_per_req", "1/req"},
		{"smartconf.knob_changed_frac", "ratio"},
		{"declog.appends_per_req", "1/req"},
		{"cluster.dispatch_ns", "ns"},
		{"cluster.offers_per_dispatch", "ratio"},
		{"cluster.refused_frac", "ratio"},
		{"cluster.throttled_frac", "ratio"},
		{"cluster.redispatched", "count"},
		{"cluster.step_memory_ns", "ns"},
		{"cluster.step_latency_ns", "ns"},
		{"metrics.sense_ns", "ns"},
		{"metrics.senses_per_req", "1/req"},
		{"experiments.profile_s", "s"},
	}
	for _, id := range artifactIDs {
		m = append(m, [2]string{"experiments." + id + "_s", "s"})
	}
	return append(m, [][2]string{
		{"engine.runs", "count"},
		{"engine.hit_frac", "ratio"},
		{"runtime.gc_cycles_per_req", "1/req"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"runtime.alloc_bytes_per_req", "B/req"},
		{"host.ref_ns", "ns"},
		{"host.raw_req_per_s", "req/s"},
		{"trace.overhead_frac", "ratio"},
		{"trace.span_cost_ns", "ns"},
		{"trace.traced_ns_per_req", "ns"},
		{"trace.residual_ns", "ns"},
		{"trace.residual_frac", "ratio"},
		{"trace.sampled_reqs", "count"},
	}...)
}

func zeroLayerMetrics() map[string]metric {
	m := map[string]metric{}
	for _, nu := range layerMetricUnits() {
		m[nu[0]] = metric{0, nu[1]}
	}
	return m
}

// set overwrites a metric's value, keeping the unit from the table; an
// unknown name is a bug in this benchmark.
func set(m map[string]metric, name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("e2ebench: unknown per-layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// printDetail prints the values behind the end-to-end metrics (raw host
// times beside the normalized ones, the reference kernel, window counts) on
// one line, ahead of the result line.
func printDetail(o options, e2e, extra map[string]metric) {
	all := map[string]float64{}
	for k, v := range e2e {
		all[k] = v.Value
	}
	for k, v := range extra {
		all[k] = v.Value
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		unit := ""
		if v, ok := e2e[k]; ok {
			unit = v.Unit
		} else {
			unit = extra[k].Unit
		}
		fmt.Fprintf(o.verbose, "  %-22s %14.6g %s\n", k, all[k], unit)
	}
	b, _ := json.Marshal(all) // a map of finite floats always marshals
	fmt.Fprintf(o.stdout, "detail %s\n", b)
}

package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"time"

	"smartconf/internal/core"
	"smartconf/internal/experiments"
)

// paper-artifacts: every simulation-backed smartconf-bench artifact rebuilt
// from a cold in-memory run cache through the exported experiments
// functions the registry calls, at the engine's default worker count. The
// unit of work is one full rebuild. The artifacts use the paper's fixed
// seeds, so --seed cannot vary this workload.

// artifactRenders mirrors the smartconf-bench registry for artifactIDs.
var artifactRenders = map[string]func() string{
	"table6": experiments.RenderTable6,
	"fig5":   func() string { return experiments.RenderFigure5(experiments.BuildFigure5()) },
	"fig6":   func() string { return experiments.RenderFigure6(experiments.BuildFigure6()) },
	"fig7":   func() string { return experiments.RenderFigure7(experiments.BuildFigure7()) },
	"fig8":   func() string { return experiments.RenderFigure8(experiments.BuildFigure8()) },
	"abl-pole": func() string {
		return experiments.RenderAblationPoles(experiments.AblationPoles())
	},
	"abl-margin": func() string {
		return experiments.RenderAblationMargins(experiments.AblationVirtualGoalMargin())
	},
	"abl-interact": func() string {
		return experiments.RenderAblationInteraction(experiments.AblationInteractionFactor())
	},
	"abl-adaptive": func() string {
		return experiments.RenderAblationAdaptive(experiments.AblationAdaptiveModel())
	},
	"abl-profiling": func() string {
		return experiments.RenderAblationProfilingDepth(experiments.AblationProfilingDepth())
	},
	"robustness": func() string { return experiments.RenderRobustness(experiments.RunRobustnessSweep()) },
	"abl-aimd": func() string {
		return experiments.RenderBackendComparison(experiments.AblationBackendAIMD())
	},
	"ext-sla":  func() string { return experiments.RenderSLA(experiments.BuildSLAComparison()) },
	"ext-dist": func() string { return experiments.RenderDistributed(experiments.RunDistributedHB3813(4)) },
	"llmkv":    func() string { return experiments.RenderFigureLLMKV(experiments.BuildFigureLLMKV()) },
	"chaos":    func() string { return experiments.RenderChaos(experiments.ChaosMatrix(experiments.ChaosSeed)) },
	"fleet":    func() string { return experiments.RenderFleet(experiments.BuildFleetComparison()) },
}

// profileCampaigns are the nine exported profiling campaigns: the set-up a
// deployment pays once.
var profileCampaigns = []func() core.Profile{
	experiments.ProfileHB3813, experiments.ProfileHB6728, experiments.ProfileHB2149,
	experiments.ProfileHD4995, experiments.ProfileCA6059, experiments.ProfileMR2820,
	experiments.ProfileLLMKV, experiments.ProfileLLMKVTTFT, experiments.ProfileFleetMemory,
}

// profileAll runs the nine campaigns from a cold run cache.
func profileAll(tr *tracer) {
	experiments.ResetRunCache()
	if tr != nil {
		tr.begin(spanProfile)
		defer tr.end()
	}
	for _, p := range profileCampaigns {
		p()
	}
}

// rebuild renders every artifact from a cold run cache and returns the
// rendered text, the artifacts that panicked and the rebuild's host ns.
// after, when set, receives each artifact's host ns right after it ends;
// the timing loop runs the reference kernel there, outside the returned ns.
func rebuild(tr *tracer, after func(ns float64)) (string, []string, float64) {
	start := time.Now()
	var inAfter time.Duration
	experiments.ResetRunCache()
	var b strings.Builder
	var errored []string
	for i, id := range artifactIDs {
		if tr != nil {
			tr.begin(uint8(spanArtifact + i))
		}
		t0 := time.Now()
		out, err := renderArtifact(id)
		d := float64(time.Since(t0).Nanoseconds())
		if tr != nil {
			tr.end()
		}
		if after != nil {
			a0 := time.Now()
			after(d)
			inAfter += time.Since(a0)
		}
		if err != nil {
			errored = append(errored, fmt.Sprintf("%s: %v", id, err))
			continue
		}
		fmt.Fprintf(&b, "════════ %s ════════\n\n%s\n", id, out)
	}
	text := b.String()
	return text, errored, float64((time.Since(start) - inAfter).Nanoseconds())
}

func renderArtifact(id string) (out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return artifactRenders[id](), nil
}

func digestText(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:16])
}

// rebuildStats is the timed phase of paper-artifacts.
type rebuildStats struct {
	n int64
	// artRaw and artNorm hold each artifact call's ns, rebuild after
	// rebuild, in artifactIDs order.
	artRaw, artNorm []float64
	refNs           []float64
	rawNs           float64 // summed artifact calls
	normNs          float64
	wallNs          float64 // summed rebuilds: cache resets and text assembly too
	rt              runtimeCounters
	failures        []string
	erroredUnits    int64
	runs, hits      uint64 // engine counters of the last rebuild
}

// timeRebuilds rebuilds until seconds have passed (count < 0) or exactly
// count times, checking every rendered text against the recorded digest.
// A rebuild's time is the sum of its artifacts' times. The reference kernel
// runs after every artifact, and each artifact is normalized by the kernel
// runs on either side of it: a rebuild lasts seconds, longer than many of
// the host's speed phases.
func timeRebuilds(want string, seconds float64, count int64, tr *tracer) rebuildStats {
	st := rebuildStats{
		refNs:   make([]float64, 0, 256*len(artifactIDs)),
		artRaw:  make([]float64, 0, 256*len(artifactIDs)),
		artNorm: make([]float64, 0, 256*len(artifactIDs)),
	}
	rs := newRuntimeSampler()
	kPrev := refKernelNs()
	var raw, norm float64
	after := func(ns float64) {
		k := refKernelNs()
		ref := (kPrev + k) / 2
		kPrev = k
		raw += ns
		norm += ns * refNominalNs / ref
		st.refNs = append(st.refNs, ref)
		st.artRaw = append(st.artRaw, ns)
		st.artNorm = append(st.artNorm, ns*refNominalNs/ref)
	}
	start := time.Now()
	for {
		raw, norm = 0, 0
		c0 := rs.read()
		text, errored, wall := rebuild(tr, after)
		st.rt.add(rs.read().sub(c0))
		st.n++
		st.rawNs += raw
		st.normNs += norm
		st.wallNs += wall
		st.runs, st.hits = experiments.RunCacheStats()
		st.erroredUnits += int64(len(errored))
		st.failures = append(st.failures, errored...)
		if got := digestText(text); got != want {
			st.failures = append(st.failures, fmt.Sprintf("rebuild %d: rendered digest %s != recorded %s", st.n, got, want))
		}
		if (count < 0 && time.Since(start).Seconds() >= seconds) || st.n == count {
			return st
		}
	}
}

// minWindowShare is the smallest share of a rebuild an artifact must take
// to serve as a timing window. Five artifacts (llmkv, chaos, fig5,
// robustness, fleet) pass it and take ~93% of a rebuild; scaled up to a
// whole rebuild, the short ones would turn a GC pause or timer noise into
// the tail.
const minWindowShare = 0.05

// artifactWindows turns artifact calls into rebuild-sized timing windows: a
// rebuild takes seconds, so a run holds too few rebuilds for a 95th
// percentile. Each call of an artifact taking at least minWindowShare of the
// median rebuild is divided by that share (its median over the run ÷ the
// sum of all artifacts' medians), estimating the time of a whole rebuild.
func artifactWindows(calls []float64) []float64 {
	n := len(artifactIDs)
	rebuilds := len(calls) / n
	med := make([]float64, n)
	var total float64
	for a := range med {
		xs := make([]float64, rebuilds)
		for r := range xs {
			xs[r] = calls[r*n+a]
		}
		med[a] = median(xs)
		total += med[a]
	}
	var out []float64
	for a := range med {
		share := med[a] / total
		if share < minWindowShare {
			continue
		}
		for r := 0; r < rebuilds; r++ {
			out = append(out, calls[r*n+a]/share)
		}
	}
	return out
}

func runArtifacts(o options) (result, error) {
	digests, err := recordedDigests()
	if err != nil {
		return result{}, err
	}
	want := digests["paper-artifacts"].Digest
	fmt.Fprintf(o.stdout, "paper-artifacts renders with the paper's fixed seeds: --seed %d does not vary it\n", o.seed)
	if o.trace {
		return traceArtifacts(o, want)
	}

	const setups = 15
	var rawSetup, normSetup []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		_, raw, norm, _ := timedSetup(func() (struct{}, error) { profileAll(nil); return struct{}{}, nil })
		rawSetup = append(rawSetup, raw)
		normSetup = append(normSetup, norm)
	}
	runtime.GC()
	st := timeRebuilds(want, o.seconds, -1, nil)
	liveMiB := liveHeapMiB()
	units := int64(len(artifactIDs)) * st.n
	e2e := map[string]metric{
		"setup_s":        {median(normSetup), "s"},
		"req_per_s":      {float64(st.n) / st.normNs * 1e9, "req/s"},
		"ns_per_req_p50": {quantile(artifactWindows(st.artNorm), 0.50), "ns"},
		"ns_per_req_p95": {quantile(artifactWindows(st.artNorm), 0.95), "ns"},
		"allocs_per_req": {float64(st.rt.allocs) / float64(st.n), "allocs/req"},
		"live_heap_mib":  {liveMiB, "MiB"},
		"admitted_frac":  {float64(units-st.erroredUnits) / float64(units), "ratio"},
	}
	extra := map[string]metric{
		"raw.setup_s":        {median(rawSetup), "s"},
		"raw.req_per_s":      {float64(st.n) / st.rawNs * 1e9, "req/s"},
		"raw.ns_per_req_p50": {quantile(artifactWindows(st.artRaw), 0.50), "ns"},
		"raw.ns_per_req_p95": {quantile(artifactWindows(st.artRaw), 0.95), "ns"},
		"host.ref_ns":        {median(st.refNs), "ns"},
		"rebuilds":           {float64(st.n), "count"},
		"windows":            {float64(len(artifactWindows(st.artNorm))), "count"},
		"setups":             {float64(setups), "count"},
		"engine.runs":        {float64(st.runs), "count"},
		"engine.hits":        {float64(st.hits), "count"},
	}
	printDetail(o, e2e, extra)
	return finish(o, st.failures, st.n, e2e), nil
}

// traceArtifacts times untraced rebuilds for half the run, then as many
// traced rebuilds, and reports per-artifact and engine metrics. Tracing only
// observes: every traced rebuild must render the recorded text with the
// same engine counts.
func traceArtifacts(o options, want string) (result, error) {
	runtime.GC()
	u := timeRebuilds(want, o.seconds/2, -1, nil)
	tr := newTracer(1)
	profileAll(tr)
	runtime.GC()
	t := timeRebuilds(want, 0, u.n, tr)
	failures := append(u.failures, t.failures...)
	if t.runs != u.runs || t.hits != u.hits {
		failures = append(failures, fmt.Sprintf("tracing changed engine counts: runs %d/%d hits %d/%d", u.runs, t.runs, u.hits, t.hits))
	}
	tot := tr.totals()
	m := zeroLayerMetrics()
	set(m, "experiments.profile_s", tot.selfNs[spanProfile]/float64(tot.calls[spanProfile])/1e9)
	for i, id := range artifactIDs {
		k := spanArtifact + i
		set(m, "experiments."+id+"_s", tot.selfNs[k]/float64(tot.calls[k])/1e9)
	}
	set(m, "engine.runs", float64(t.runs))
	if t.runs+t.hits > 0 {
		set(m, "engine.hit_frac", float64(t.hits)/float64(t.runs+t.hits))
	}
	set(m, "runtime.gc_cycles_per_req", float64(u.rt.gcCycles)/float64(u.n))
	set(m, "runtime.alloc_bytes_per_req", float64(u.rt.allocBytes)/float64(u.n))
	if u.rt.totalCPU > 0 {
		set(m, "runtime.gc_cpu_frac", u.rt.gcCPU/u.rt.totalCPU)
	}
	set(m, "host.ref_ns", median(u.refNs))
	set(m, "host.raw_req_per_s", float64(u.n)/u.rawNs*1e9)
	untraced := float64(u.n) / u.normNs * 1e9
	traced := float64(t.n) / t.normNs * 1e9
	set(m, "trace.overhead_frac", 1-traced/untraced)
	// Every artifact call is spanned, so the residual is the rebuild's time
	// outside the artifact calls (cache reset, text assembly), over the
	// traced rebuild time.
	var inArtifacts float64
	for i := range artifactIDs {
		inArtifacts += tot.selfNs[spanArtifact+i]
	}
	set(m, "trace.traced_ns_per_req", t.wallNs/float64(t.n))
	set(m, "trace.residual_ns", (t.wallNs-inArtifacts)/float64(t.n))
	set(m, "trace.residual_frac", 1-inArtifacts/t.wallNs)
	set(m, "trace.sampled_reqs", float64(t.n))
	set(m, "trace.span_cost_ns", tr.spanCost)
	fmt.Fprintf(o.stdout, "traced %d rebuilds: engine runs=%d hits=%d; %.3f s/rebuild traced vs %.3f untraced (normalized)\n",
		t.n, t.runs, t.hits, 1/traced, 1/untraced)
	if path, err := tr.write(o.outDir, fmt.Sprintf("paper-artifacts-seed%d.tsv", o.seed)); err != nil {
		fmt.Fprintf(o.verbose, "e2ebench: %v\n", err)
	} else {
		fmt.Fprintf(o.stdout, "spans written to %s\n", path)
	}
	return finish(o, failures, u.n+t.n, m), nil
}

package main

import (
	"fmt"
	"runtime"
	"time"
)

// simLoad is one simulation-backed workload instance after set-up.
type simLoad interface {
	// step offers n more requests.
	step(n int64)
	requests() int64
	admitted() int64
	outcome() (outcome, error)
	// check verifies the seed-independent invariants of the run so far.
	check() error
	// counters snapshots the program's counters (and, on a traced
	// instance, the benchmark's own per-request counts).
	counters() map[string]int64
}

// simSpec describes how the harness times one simulation workload.
type simSpec struct {
	name string
	// window is the request count of one timing window; it is chosen so
	// that a run measures well over 200 windows.
	window int64
	// checkpoint is the request count (a multiple of window, past the
	// warm-up) at which the outcome digest is taken.
	checkpoint int64
	setups     int
	// knobMax is the admission knob's default upper bound.
	knobMax float64
	build   func(seed int64, knobMax float64, tr *tracer) (simLoad, error)
	// spansPerReq is how many spans a sampled request records.
	spansPerReq int64
	// layers fills the per-layer metrics of a traced run.
	layers func(in layerInput, m map[string]metric)
}

// windowStats is the timed phase: host ns of each window, raw and
// normalized to the reference speed, and the reference kernel beside them.
type windowStats struct {
	requests    int64
	raw, norm   []float64 // ns per request per window
	refNs       []float64
	rawNs       float64 // summed window time
	normNs      float64
	alloc       runtimeCounters // inside windows only
	checkpoint  outcome
	checkpointE error
	reached     bool
	// Requests offered and admitted when the checkpoint was reached.
	ckOffered, ckAdmitted int64
}

const maxWindows = 1 << 14

// timeWindows advances l window by window until seconds have passed and the
// checkpoint was reached. The reference kernel runs between windows; each
// window is normalized by the mean of the two kernel runs around it.
// Allocation and GC counters are read around each window only.
func timeWindows(l simLoad, spec simSpec, seconds float64) windowStats {
	ws := windowStats{
		raw:   make([]float64, 0, maxWindows),
		norm:  make([]float64, 0, maxWindows),
		refNs: make([]float64, 0, maxWindows),
	}
	rs := newRuntimeSampler()
	kPrev := refKernelNs()
	start := time.Now()
	for {
		c0 := rs.read()
		t0 := time.Now()
		l.step(spec.window)
		d := float64(time.Since(t0).Nanoseconds())
		ws.alloc.add(rs.read().sub(c0))
		k := refKernelNs()
		ref := (kPrev + k) / 2
		kPrev = k
		per := d / float64(spec.window)
		if len(ws.raw) < maxWindows {
			ws.raw = append(ws.raw, per)
			ws.norm = append(ws.norm, per*refNominalNs/ref)
			ws.refNs = append(ws.refNs, ref)
		}
		ws.rawNs += d
		ws.normNs += d * refNominalNs / ref
		ws.requests += spec.window
		if l.requests() == spec.checkpoint {
			ws.checkpoint, ws.checkpointE = l.outcome()
			ws.reached = true
			ws.ckOffered, ws.ckAdmitted = l.requests(), l.admitted()
		}
		if ws.reached && time.Since(start).Seconds() >= seconds {
			return ws
		}
	}
}

// runSim is the harness shared by the simulation workloads: golden check,
// repeated set-up, timed windows, outcome checks, and either end-to-end or
// (traced) per-layer metrics.
func runSim(spec simSpec, o options) (result, error) {
	digests, err := recordedDigests()
	if err != nil {
		return result{}, err
	}
	rec, ok := digests[spec.name]
	if !ok {
		return result{}, fmt.Errorf("no recorded digest for %s", spec.name)
	}
	var failures []string

	// Golden check: the recorded seed's outcome at the recorded request
	// count must reproduce the recorded digest, whatever seed this run uses.
	golden, err := spec.build(rec.Seed, spec.knobMax, nil)
	if err != nil {
		return result{}, fmt.Errorf("golden set-up: %w", err)
	}
	golden.step(rec.Requests - golden.requests())
	gout, err := golden.outcome()
	if err != nil {
		return result{}, fmt.Errorf("golden outcome: %w", err)
	}
	fmt.Fprintf(o.stdout, "golden seed=%d requests=%d digest=%s recorded=%s\n", rec.Seed, rec.Requests, gout.digest, rec.Digest)
	if gout.digest != rec.Digest {
		failures = append(failures, fmt.Sprintf("golden digest %s != recorded %s (%s)", gout.digest, rec.Digest, gout))
	}
	golden = nil
	if o.knobMax >= 0 {
		spec.knobMax = o.knobMax
	}
	if o.trace {
		return traceSim(spec, o, failures)
	}

	setups := spec.setups
	var rawSetup, normSetup []float64
	var l simLoad
	var setupAllocs uint64
	rs := newRuntimeSampler()
	for i := 0; i < setups; i++ {
		l = nil
		runtime.GC()
		c0 := rs.read()
		built, raw, norm, err := timedSetup(func() (simLoad, error) { return spec.build(o.seed, spec.knobMax, nil) })
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupAllocs = rs.read().sub(c0).allocs
		l = built
		rawSetup = append(rawSetup, raw)
		normSetup = append(normSetup, norm)
	}
	runtime.GC()
	ws := timeWindows(l, spec, o.seconds)
	if ws.checkpointE != nil {
		return result{}, fmt.Errorf("checkpoint outcome: %w", ws.checkpointE)
	}
	fmt.Fprintf(o.stdout, "outcome seed=%d at %d requests: digest=%s %s\n", o.seed, spec.checkpoint, ws.checkpoint.digest, ws.checkpoint)
	if err := l.check(); err != nil {
		failures = append(failures, err.Error())
	}
	attempted := l.requests()
	// Admission is measured after the checkpoint, in steady state: the
	// controllers' convergence and the fleet's chaos fall before it, and the
	// number of requests a run reaches depends on the host's speed.
	offered, admitted := attempted-ws.ckOffered, l.admitted()-ws.ckAdmitted
	if offered == 0 {
		offered, admitted = attempted, l.admitted()
	}
	liveMiB := liveHeapMiB()
	runtime.KeepAlive(l)

	refMedian := median(ws.refNs)
	e2e := map[string]metric{
		"setup_s":        {median(normSetup), "s"},
		"req_per_s":      {float64(ws.requests) / ws.normNs * 1e9, "req/s"},
		"ns_per_req_p50": {quantile(ws.norm, 0.50), "ns"},
		"ns_per_req_p95": {quantile(ws.norm, 0.95), "ns"},
		// Set-up's allocations amortized over the first checkpoint requests
		// of a deployment, plus the timed phase's own: the steady state is
		// allocation-free, so this reads set-up until a change allocates on
		// the request path.
		"allocs_per_req": {float64(setupAllocs)/float64(spec.checkpoint) + float64(ws.alloc.allocs)/float64(ws.requests), "allocs/req"},
		"live_heap_mib":  {liveMiB, "MiB"},
		"admitted_frac":  {float64(admitted) / float64(offered), "ratio"},
	}
	raw := map[string]metric{
		"raw.setup_s":        {median(rawSetup), "s"},
		"raw.req_per_s":      {float64(ws.requests) / ws.rawNs * 1e9, "req/s"},
		"raw.ns_per_req_p50": {quantile(ws.raw, 0.50), "ns"},
		"raw.ns_per_req_p95": {quantile(ws.raw, 0.95), "ns"},
		"host.ref_ns":        {refMedian, "ns"},
		"windows":            {float64(len(ws.raw)), "count"},
		"setups":             {float64(setups), "count"},
	}
	printDetail(o, e2e, raw)

	return finish(o, failures, attempted, e2e), nil
}

// finish builds the result line: any failure marks the run incorrect and
// counts every attempted unit failed.
func finish(o options, failures []string, attempted int64, m map[string]metric) result {
	res := result{Correct: len(failures) == 0, Attempted: attempted, Metrics: m}
	for _, f := range failures {
		fmt.Fprintf(o.stdout, "FAILED: %s\n", f)
	}
	if !res.Correct {
		res.Failed = attempted
	}
	return res
}

// layerInput is what a traced run measured, for the per-layer metrics.
type layerInput struct {
	n     int64            // requests in the traced phase
	tr    *tracer          // spans of the traced phase
	tot   layerTotals      // self time and calls per span kind
	delta map[string]int64 // counter changes over the traced phase
	end   map[string]int64 // counters at the end of the traced phase
}

// perSampled returns a span kind's self time per sampled request.
func (in layerInput) perSampled(kinds ...int) float64 {
	if in.tr.sampled == 0 {
		return 0
	}
	var t float64
	for _, k := range kinds {
		t += in.tot.selfNs[k]
	}
	return t / float64(in.tr.sampled)
}

// perCall returns a span kind's self time per recorded call.
func (in layerInput) perCall(kind int) float64 {
	if in.tot.calls[kind] == 0 {
		return 0
	}
	return in.tot.selfNs[kind] / float64(in.tot.calls[kind])
}

func (in layerInput) ratio(num, den string) float64 {
	if in.delta[den] == 0 {
		return 0
	}
	return float64(in.delta[num]) / float64(in.delta[den])
}

func (in layerInput) perReq(name string) float64 {
	return float64(in.delta[name]) / float64(in.n)
}

func diffCounters(a, b map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(b))
	for k, v := range b {
		d[k] = v - a[k]
	}
	return d
}

// traceSim is the traced run: an untraced instance is timed for half the
// run, then a traced instance of the same seed offers exactly as many
// requests. Tracing only observes, so both must end with the same outcome
// digest and counts; the per-layer metrics come from the traced instance's
// spans and counters.
func traceSim(spec simSpec, o options, failures []string) (result, error) {
	u, err := spec.build(o.seed, spec.knobMax, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	ws := timeWindows(u, spec, o.seconds/2)
	uOut, err := u.outcome()
	if err != nil {
		return result{}, err
	}
	uCounts := u.counters()

	every := (ws.requests*spec.spansPerReq + spanCapacity - 1) / spanCapacity
	tr := newTracer(every)
	t, err := spec.build(o.seed, spec.knobMax, tr)
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	runtime.GC()
	start := t.counters()
	var tracedNs, tracedNorm float64
	kPrev := refKernelNs()
	for done := int64(0); done < ws.requests; done += spec.window {
		t0 := time.Now()
		t.step(spec.window)
		d := float64(time.Since(t0).Nanoseconds())
		k := refKernelNs()
		tracedNs += d
		tracedNorm += d * refNominalNs / ((kPrev + k) / 2)
		kPrev = k
	}
	tOut, err := t.outcome()
	if err != nil {
		return result{}, err
	}
	end := t.counters()
	fmt.Fprintf(o.stdout, "untraced outcome: digest=%s %s\n", uOut.digest, uOut)
	fmt.Fprintf(o.stdout, "traced outcome:   digest=%s %s\n", tOut.digest, tOut)
	if uOut.digest != tOut.digest {
		failures = append(failures, "tracing changed the outcome digest")
	}
	for k, v := range uCounts {
		if end[k] != v {
			failures = append(failures, fmt.Sprintf("tracing changed count %s: %d untraced, %d traced", k, v, end[k]))
		}
	}
	if err := t.check(); err != nil {
		failures = append(failures, err.Error())
	}

	in := layerInput{n: ws.requests, tr: tr, tot: tr.totals(), delta: diffCounters(start, end), end: end}
	m := zeroLayerMetrics()
	spec.layers(in, m)
	untracedRate := float64(ws.requests) / ws.normNs * 1e9
	tracedRate := float64(ws.requests) / tracedNorm * 1e9
	set(m, "host.ref_ns", median(ws.refNs))
	set(m, "host.raw_req_per_s", float64(ws.requests)/ws.rawNs*1e9)
	set(m, "runtime.gc_cycles_per_req", float64(ws.alloc.gcCycles)/float64(ws.requests))
	set(m, "runtime.alloc_bytes_per_req", float64(ws.alloc.allocBytes)/float64(ws.requests))
	if ws.alloc.totalCPU > 0 {
		set(m, "runtime.gc_cpu_frac", ws.alloc.gcCPU/ws.alloc.totalCPU)
	}
	set(m, "trace.overhead_frac", 1-tracedRate/untracedRate)
	fillResidual(in, m)
	fmt.Fprintf(o.stdout, "traced %d requests (spans on every %d-th, %d sampled): %.0f ns/req traced vs %.0f untraced (normalized), %.0f raw\n",
		ws.requests, every, tr.sampled, 1e9/tracedRate, 1e9/untracedRate, tracedNs/float64(ws.requests))
	if path, err := tr.write(o.outDir, fmt.Sprintf("%s-seed%d.tsv", spec.name, o.seed)); err != nil {
		fmt.Fprintf(o.verbose, "e2ebench: %v\n", err)
	} else {
		fmt.Fprintf(o.stdout, "spans written to %s\n", path)
	}
	runtime.KeepAlive(u)
	return finish(o, failures, ws.requests, m), nil
}

// fillResidual states what the summed per-layer self times leave
// unexplained. Its base is the traced ns of a sampled request with the
// tracer's own cost taken out; the residual is the request span's own self
// time — the request loop's glue between the calls, which no layer owns.
func fillResidual(in layerInput, m map[string]metric) {
	if in.tr.sampled == 0 {
		return
	}
	sampled := float64(in.tr.sampled)
	var perReq float64
	for k, v := range in.tot.selfNs {
		if k < spanStepMemory || k > spanSense { // rare spans are amortized over all requests
			perReq += v / sampled
		}
	}
	for _, k := range []int{spanStepMemory, spanStepLatency, spanSense} {
		perReq += in.tot.selfNs[k] / float64(in.n)
	}
	residual := in.tot.selfNs[spanRequest] / sampled
	set(m, "trace.span_cost_ns", in.tr.spanCost)
	set(m, "trace.traced_ns_per_req", perReq)
	set(m, "trace.residual_ns", residual)
	set(m, "trace.residual_frac", residual/perReq)
	set(m, "trace.sampled_reqs", sampled)
}

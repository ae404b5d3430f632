package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The tracer records spans around the benchmark's own calls into each
// module's public functions: name (layer), start, end, parent span and
// request id. Spans live in a preallocated in-memory buffer and are written
// out when the run ends; self time is a span's duration minus the time its
// child spans cover.
//
// One clock read costs tens of ns, against a few hundred ns per simulated
// request, so spans are taken on every k-th request only; counts are taken
// on every request. Rare spans (coordinator ticks) are recorded whenever
// they occur.

// Span names. The order fixes the layer ids stored in each span.
const (
	spanRequest = iota // one request loop iteration: glue between calls
	spanNextInterarrival
	spanNextOp
	spanRunUntil
	spanOffer
	spanDecide
	spanDispatch
	spanStepMemory
	spanStepLatency
	spanSense
	spanProfile
	spanArtifact // first artifact; artifact i is spanArtifact+i
)

// spanNames names each span kind; the paper-artifacts workload appends one
// name per artifact.
var spanNames = []string{
	"request",
	"workload.NextInterarrival",
	"workload.NextOp",
	"sim.RunUntil",
	"rpcserver.Offer",
	"smartconf.SetPerf+Conf",
	"cluster.Dispatch",
	"cluster.StepMemory",
	"cluster.StepLatency",
	"metrics.Latency.Percentile",
	"experiments.Profile*",
}

func init() {
	for _, id := range artifactIDs {
		spanNames = append(spanNames, "experiments."+id)
	}
}

type span struct {
	kind   uint8
	parent int32 // index into tracer.spans, -1 for a root
	req    int64
	start  int64 // ns since tracer.base
	end    int64
}

// spanCapacity bounds the in-memory span buffer (32 B per span).
const spanCapacity = 1 << 19

type tracer struct {
	base time.Time
	// spanCost is the measured ns one begin/end pair adds to the run;
	// spanInner is the part of it that falls inside the span's own
	// interval. The rest lands in the parent's self time.
	spanCost, spanInner float64
	spans               []span
	every               int64 // sample every k-th request
	sampled             int64 // requests whose spans were recorded
	req                 int64 // current request id
	on                  bool  // the current request is sampled
	stack               [8]int32
	depth               int
}

func newTracer(every int64) *tracer {
	if every < 1 {
		every = 1
	}
	t := &tracer{base: time.Now(), spans: make([]span, 0, spanCapacity), every: every}
	const n = 1 << 14
	start := time.Now()
	for i := 0; i < n; i++ {
		t.begin(spanRequest)
		t.end()
	}
	t.spanCost = float64(time.Since(start).Nanoseconds()) / n
	var inner int64
	for _, s := range t.spans {
		inner += s.end - s.start
	}
	t.spanInner = float64(inner) / n
	t.spans = t.spans[:0]
	return t
}

// startRequest opens request req's root span if the request is sampled and
// the buffer has room for a full request.
func (t *tracer) startRequest(req int64) {
	t.req = req
	t.on = req%t.every == 0 && len(t.spans)+16 <= cap(t.spans)
	if t.on {
		t.sampled++
		t.begin(spanRequest)
	}
}

func (t *tracer) endRequest() {
	if t.on {
		t.end()
		t.on = false
	}
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(kind uint8) {
	parent := int32(-1)
	if t.depth > 0 {
		parent = t.stack[t.depth-1]
	}
	t.stack[t.depth] = int32(len(t.spans))
	t.depth++
	t.spans = append(t.spans, span{kind: kind, parent: parent, req: t.req, start: int64(time.Since(t.base))})
}

func (t *tracer) end() {
	t.depth--
	t.spans[t.stack[t.depth]].end = int64(time.Since(t.base))
}

// beginAlways opens a span for a rare call (a coordinator tick) whether or
// not the current request is sampled; it reports whether it did.
func (t *tracer) beginAlways(kind uint8) bool {
	if len(t.spans)+4 > cap(t.spans) {
		return false
	}
	t.begin(kind)
	return true
}

// layerTotals aggregates self time and call counts per span kind. Self
// times are corrected for the tracer's own cost: a span's self time holds
// the inner part of its own clock reads and the outer part of each child's.
type layerTotals struct {
	selfNs []float64
	calls  []int64
	rootNs float64 // summed root (request) span durations
}

func (t *tracer) totals() layerTotals {
	lt := layerTotals{selfNs: make([]float64, len(spanNames)), calls: make([]int64, len(spanNames))}
	child := make([]int64, len(t.spans))
	children := make([]int32, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			child[p] += t.spans[i].end - t.spans[i].start
			children[p]++
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		lt.selfNs[s.kind] += float64(d-child[i]) - t.spanInner - (t.spanCost-t.spanInner)*float64(children[i])
		lt.calls[s.kind]++
		if s.kind == spanRequest {
			lt.rootNs += float64(d)
		}
	}
	return lt
}

// write stores the spans as tab-separated lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span\tparent\tname\treq\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, spanNames[s.kind], s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}

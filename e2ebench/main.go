// Command e2ebench is the repository's end-to-end benchmark: it drives the
// real SmartConf control loops through the modules' public APIs and prints
// end-to-end metrics (or, with --trace 1, per-layer metrics) for one
// workload as a JSON object on the last line of standard output.
//
//	bash e2ebench/run.sh --workload hb3813-admit --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and how
// they are measured.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

//go:embed digests.json
var digestsJSON []byte

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type namedCount struct {
	name string
	v    int64
}

// outcome is a run's deterministic result: its counts and their digest.
type outcome struct {
	counts []namedCount
	digest string
}

func (o outcome) String() string {
	parts := make([]string, len(o.counts))
	for i, c := range o.counts {
		parts[i] = fmt.Sprintf("%s=%d", c.name, c.v)
	}
	return strings.Join(parts, " ")
}

// digestOf hashes each count (its name, then its value as 8 little-endian
// bytes) followed by the extra byte strings, in order.
func digestOf(counts []namedCount, extra ...[]byte) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range counts {
		binary.LittleEndian.PutUint64(b[:], uint64(c.v))
		h.Write([]byte(c.name))
		h.Write(b[:])
	}
	for _, e := range extra {
		h.Write(e)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// recordedDigest is one entry of digests.json: the outcome digest of a
// workload's golden check.
type recordedDigest struct {
	Seed     int64  `json:"seed"`
	Requests int64  `json:"requests"`
	Digest   string `json:"digest"`
}

func recordedDigests() (map[string]recordedDigest, error) {
	var m map[string]recordedDigest
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// knobMax overrides the admission knob's upper bound (tests close the
	// knob with it); negative means the workload's default.
	knobMax float64
	outDir  string // where traced runs write their spans
	stdout  io.Writer
	verbose io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{stdout: stdout, verbose: stderr, knobMax: -1, outDir: ".bench_build/traces"}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds to measure")
	traceFlag := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	w, ok := workloads[o.workload]
	if !ok || fs.NArg() > 0 || o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "usage: e2ebench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	res, err := w(o)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

var workloads = map[string]func(options) (result, error){
	"hb3813-admit":    runAdmit,
	"fleet-rpc":       runFleet,
	"paper-artifacts": runArtifacts,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---- measurement helpers ----

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// timedSetup runs build with the reference kernel immediately before and
// after it and returns the raw seconds and the seconds normalized to the
// reference speed.
func timedSetup[T any](build func() (T, error)) (T, float64, float64, error) {
	k0 := refKernelNs()
	start := time.Now()
	v, err := build()
	raw := time.Since(start).Seconds()
	k1 := refKernelNs()
	return v, raw, raw * refNominalNs / ((k0 + k1) / 2), err
}

// runtimeCounters samples the Go runtime's allocation and GC counters.
type runtimeCounters struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

type runtimeSampler struct{ samples []metrics.Sample }

func newRuntimeSampler() *runtimeSampler {
	s := &runtimeSampler{samples: make([]metrics.Sample, len(runtimeMetricNames))}
	for i, n := range runtimeMetricNames {
		s.samples[i].Name = n
	}
	return s
}

func (r *runtimeSampler) read() runtimeCounters {
	metrics.Read(r.samples)
	return runtimeCounters{
		allocs:     r.samples[0].Value.Uint64(),
		allocBytes: r.samples[1].Value.Uint64(),
		gcCycles:   r.samples[2].Value.Uint64(),
		gcCPU:      r.samples[3].Value.Float64(),
		totalCPU:   r.samples[4].Value.Float64(),
	}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocs:     c.allocs - o.allocs,
		allocBytes: c.allocBytes - o.allocBytes,
		gcCycles:   c.gcCycles - o.gcCycles,
		gcCPU:      c.gcCPU - o.gcCPU,
		totalCPU:   c.totalCPU - o.totalCPU,
	}
}

func (c *runtimeCounters) add(o runtimeCounters) {
	c.allocs += o.allocs
	c.allocBytes += o.allocBytes
	c.gcCycles += o.gcCycles
	c.gcCPU += o.gcCPU
	c.totalCPU += o.totalCPU
}

// liveHeapMiB forces a collection and returns the heap still in use; keep
// the workload reachable across the call.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

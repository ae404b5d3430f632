package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the output must match.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func goldenOutcome(t *testing.T, spec simSpec, seed int64) outcome {
	t.Helper()
	digests, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	l, err := spec.build(seed, spec.knobMax, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.step(digests[spec.name].Requests - l.requests())
	o, err := l.outcome()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.check(); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
	return o
}

// TestDigestsReproduce pins that the golden seed reproduces the recorded
// digest and that another seed changes it.
func TestDigestsReproduce(t *testing.T) {
	digests, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []simSpec{admitSpec(), fleetSpec()} {
		rec := digests[spec.name]
		if got := goldenOutcome(t, spec, rec.Seed); got.digest != rec.Digest {
			t.Errorf("%s seed %d: digest %s, recorded %s (%s)", spec.name, rec.Seed, got.digest, rec.Digest, got)
		}
		if got := goldenOutcome(t, spec, rec.Seed+1); got.digest == rec.Digest {
			t.Errorf("%s: seed %d reproduces seed %d's digest", spec.name, rec.Seed+1, rec.Seed)
		}
	}
}

func TestArtifactsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("one full rebuild takes seconds")
	}
	digests, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	text, errored, _ := rebuild(nil, nil)
	if len(errored) > 0 {
		t.Fatalf("artifacts errored: %v", errored)
	}
	if got := digestText(text); got != digests["paper-artifacts"].Digest {
		t.Errorf("rendered digest %s, recorded %s", got, digests["paper-artifacts"].Digest)
	}
}

// runLast runs the command line and returns the parsed last line.
func runLast(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %s", got)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func checkNames(t *testing.T, m map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(m) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json lists %d", len(m), len(want))
	}
	for _, w := range want {
		got, ok := m[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if got.Unit != w.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
	}
}

// TestOutputMatchesBenchmarkJSON runs each mode briefly and checks that the
// result line carries exactly the metrics BENCHMARK.json declares, and that
// tracing only observed (the traced run checks its own counts).
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	res := runLast(t, "--workload", "hb3813-admit", "--seed", "3", "--seconds", "0.3", "--trace", "0")
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("untraced: %+v", res)
	}
	checkNames(t, res.Metrics, bj.EndToEnd)
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
	res = runLast(t, "--workload", "hb3813-admit", "--seed", "3", "--seconds", "0.6", "--trace", "1")
	if !res.Correct {
		t.Errorf("traced: %+v", res)
	}
	checkNames(t, res.Metrics, bj.PerLayer)
}

// TestZeroAdmissionBound pins that closing the admission knob makes the
// workloads refuse requests while the run still ends with every metric.
func TestZeroAdmissionBound(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range []string{"hb3813-admit", "fleet-rpc"} {
		var out bytes.Buffer
		// A bound below 0.5 rounds every decision to a zero knob
		// (Spec.Max 0 itself would mean unbounded).
		res, err := workloads[w](options{
			workload: w, seed: 2, seconds: 0.2, knobMax: 0.25,
			stdout: &out, verbose: io.Discard,
		})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		checkNames(t, res.Metrics, bj.EndToEnd)
		if got := res.Metrics["admitted_frac"].Value; got >= 0.5 {
			t.Errorf("%s: admitted_frac %v with the admission knob closed", w, got)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "hb3813-admit", "--trace", "2"},
		{"--workload", "hb3813-admit", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("p50 = %v", q)
	}
	if q := quantile(xs, 0.95); q != 5 {
		t.Errorf("p95 = %v", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

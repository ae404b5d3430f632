package benchgate

import (
	"testing"

	"smartconf/internal/declog"
	"smartconf/internal/experiments"
)

// The whole-run gate: where gate_test.go replays micro-op benchmarks, this
// test drives each substrate's actual -scale run — workload generator,
// simulator, substrate, sensors, and a shadow decision-logging controller —
// and enforces the raw-speed engine's contract end to end. Allocations are
// strict on every substrate: after a warm-up prefix, a window of tens of
// thousands of requests and then one of a million must allocate NOTHING —
// with decision logging enabled — the property that lets a 10M-request
// campaign finish in seconds and the decision log stay on in production.
// Requests/sec is advisory against the recorded baseline, like ns/op in the
// micro gate.

const (
	// wholeRunWarm is the prefix that grows every queue, free list, and
	// sensor window to its steady-state size before measurement. dfs starts
	// its first content summary at write 200,000, and its first lock hold
	// blocks about 60,000 writes, so the prefix runs past that hold: the
	// blocked-writer array has its working size when measurement starts.
	wholeRunWarm = 300_000
	// wholeRunWindow is the measured steady-state window.
	wholeRunWindow = 50_000
	// wholeRunLongWindow is the long window that follows it. State that
	// grows with simulated time (a backlog kept in a slice) allocates only
	// when its slice doubles, so 50k-request windows can miss it for
	// millions of requests.
	wholeRunLongWindow = 1_000_000
)

func TestWholeRunVsBaseline(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts and timing")
	}
	if testing.Short() {
		t.Skip("benchmark gate skipped in -short mode")
	}

	base := loadBaseline(t)
	for _, substrate := range experiments.ScaleSubstrates {
		key := "smartconf/internal/experiments.ScaleRun/" + substrate
		entry, ok := base.Benchmarks[key]
		if !ok {
			t.Errorf("%s: whole-run gate has no baseline entry — record one", key)
			continue
		}
		log := declog.New(experiments.DeclogCapacity)
		r := experiments.NewScaleRunner(substrate, log)
		total := int64(wholeRunWarm)
		r.RunTo(total)
		if log.Total() == 0 {
			t.Errorf("%s: shadow controller logged no decisions over the warm-up — the gate is not exercising the decision log", key)
		}

		allocs := testing.AllocsPerRun(3, func() {
			total += wholeRunWindow
			r.RunTo(total)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per %d-request steady-state window (decision logging on), want 0 — a new allocation crept onto the request path",
				key, allocs, wholeRunWindow)
		}

		wall, _ := Measure(func() {
			total += wholeRunWindow
			r.RunTo(total)
		})
		nsPerReq := float64(wall.Nanoseconds()) / float64(wholeRunWindow)
		if entry.NsPerOp > 0 && nsPerReq > entry.NsPerOp*timeWarnFactor {
			t.Logf("warn: %s at %.1f ns/request vs %.1f recorded (×%.1f) — advisory only, host timing varies",
				key, nsPerReq, entry.NsPerOp, nsPerReq/entry.NsPerOp)
		}

		start := total + wholeRunLongWindow // past AllocsPerRun's warm-up call
		allocs = testing.AllocsPerRun(1, func() {
			total += wholeRunLongWindow
			r.RunTo(total)
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocs in the %d-request window %d–%d (decision logging on), want 0 — state that grows with simulated time is allocating",
				key, allocs, wholeRunLongWindow, start, total)
		}
	}
}

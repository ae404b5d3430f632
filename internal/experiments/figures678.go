package experiments

import (
	"fmt"
	"strings"
	"time"

	"smartconf"
	"smartconf/internal/experiments/engine"
	"smartconf/internal/memsim"
	"smartconf/internal/rpcserver"
	"smartconf/internal/workload"
)

// Figure 6: the HB3813 case study — SmartConf versus the static-optimal
// setting, with the time series behind panels (a) cumulative throughput,
// (b) used memory against the 495 MB constraint and the automatic virtual
// goal, and (c) the max.queue.size trajectory.

// Figure6 holds both runs plus the constraint annotations.
type Figure6 struct {
	SmartConf   Result
	Static      Result
	StaticVal   float64
	Goal        float64
	VirtualGoal float64
}

// BuildFigure6 runs the case study. The static comparator is the best
// setting from the Figure 5 sweep for HB3813.
func BuildFigure6() Figure6 {
	sc := HB3813Scenario()
	row := BuildFigure5Row(sc)
	smart := row.Bars[0].Result

	return Figure6{
		SmartConf:   smart,
		Static:      row.Optimal,
		StaticVal:   row.Optimal.Policy.Static,
		Goal:        float64(rpcMemoryGoal),
		VirtualGoal: newHB3813Conf().VirtualGoal(), // the one SmartConf derived, for the annotation
	}
}

// RenderFigure6 prints the three panels as aligned series samples.
func RenderFigure6(f Figure6) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 6: SmartConf vs static optimal on HB3813 (workload doubles request size mid-run)")
	fmt.Fprintf(&b, "memory constraint %.0fMB (hard); SmartConf virtual goal %.0fMB; static=%g\n\n",
		f.Goal/float64(mb), f.VirtualGoal/float64(mb), f.StaticVal)
	fmt.Fprintf(&b, "%8s | %12s %12s | %12s %12s | %12s %12s\n",
		"t(s)", "sc ops", "st ops", "sc memMB", "st memMB", "sc queue", "st queue")
	scOps, _ := f.SmartConf.SeriesByName("completed_ops")
	stOps, _ := f.Static.SeriesByName("completed_ops")
	scMem, _ := f.SmartConf.SeriesByName("used_memory")
	stMem, _ := f.Static.SeriesByName("used_memory")
	scQ, _ := f.SmartConf.SeriesByName("max.queue.size")
	stQ, _ := f.Static.SeriesByName("max.queue.size")
	for t := 25 * time.Second; t <= hb3813RunTime; t += 25 * time.Second {
		fmt.Fprintf(&b, "%8.0f | %12.0f %12.0f | %12.1f %12.1f | %12.0f %12.0f\n",
			t.Seconds(),
			scOps.At(t), stOps.At(t),
			scMem.At(t)/float64(mb), stMem.At(t)/float64(mb),
			scQ.At(t), stQ.At(t))
	}
	fmt.Fprintf(&b, "\nfinal throughput: SmartConf %.2f ops/s vs static %.2f ops/s (%.2fx)\n",
		f.SmartConf.Tradeoff, f.Static.Tradeoff, f.SmartConf.Speedup(f.Static))
	fmt.Fprintf(&b, "\nshape (0→%.0fs):\n", hb3813RunTime.Seconds())
	fmt.Fprintf(&b, "  sc memory %s\n", sparkline(scMem, 60, hb3813RunTime))
	fmt.Fprintf(&b, "  sc queue  %s\n", sparkline(scQ, 60, hb3813RunTime))
	return b.String()
}

// Figure 7: controller ablations on HB3813 under a less stable workload
// (70% writes / 30% reads). The single-pole controller (no danger-region
// switch) and the no-virtual-goal controller (targets the real limit) both
// OOM; full SmartConf survives — and no-virtual-goal dies first.

// Figure7 holds the three runs.
type Figure7 struct {
	SmartConf     Result
	SinglePole    Result
	NoVirtualGoal Result
}

func figure7Phases() []workload.YCSBPhase {
	return []workload.YCSBPhase{
		// A less stable mix than Figure 6's, with a request-size jump at
		// 60 s — the sudden, discrete disturbance §5.2 argues traditional
		// controllers cannot absorb.
		{Name: "unstable-1", Duration: 60 * time.Second, WriteRatio: 0.7, RequestBytes: 1 * mb},
		{Name: "unstable-2", WriteRatio: 0.7, RequestBytes: 2 * mb},
	}
}

const figure7RunTime = 180 * time.Second

// BuildFigure7 runs the ablation study.
func BuildFigure7() Figure7 {
	// The paper pins the pole at 0.9 for both SmartConf and the single-pole
	// baseline, so the danger-region pole and virtual goal are the only
	// mechanisms under test.
	// Steady overload (80 ops/s against ~56 ops/s of service) keeps the
	// queue pinned at its bound, so memory tracks the knob directly and the
	// controllers' reaction speed is the only variable.
	kinds := []PolicyKind{SmartConfPolicy, SinglePolePolicy, NoVirtualGoalPolicy}
	runs := engine.MapSlice(kinds, func(kind PolicyKind) Result {
		p := Policy{Kind: kind, FixedPole: 0.9}
		return memoKeyed("HB3813", policyKey(p), "figure7", 7813, func() Result {
			return hb3813Run{seed: 7813, genSeed: 7814, phases: figure7Phases(), burst: 1,
				every: 12500 * time.Microsecond, spacing: time.Millisecond, horizon: figure7RunTime}.run(p)
		})
	})
	return Figure7{
		SmartConf:     runs[0],
		SinglePole:    runs[1],
		NoVirtualGoal: runs[2],
	}
}

// RenderFigure7 prints the memory trajectories and OOM times.
func RenderFigure7(f Figure7) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 7: SmartConf vs alternative controllers on HB3813 (unstable 0.7W/0.3R workload)")
	describe := func(name string, r Result) {
		status := "satisfies the constraint"
		if !r.ConstraintMet {
			status = fmt.Sprintf("FAILS (%s at %.0fs)", r.Violation, r.ViolatedAt.Seconds())
		}
		fmt.Fprintf(&b, "  %-16s %s\n", name, status)
	}
	describe("SmartConf", f.SmartConf)
	describe("Single-Pole", f.SinglePole)
	describe("No-Virtual-Goal", f.NoVirtualGoal)
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "%8s | %12s %12s %12s   (used memory, MB; limit 495)\n",
		"t(s)", "SmartConf", "SinglePole", "NoVirtGoal")
	scMem, _ := f.SmartConf.SeriesByName("used_memory")
	spMem, _ := f.SinglePole.SeriesByName("used_memory")
	nvMem, _ := f.NoVirtualGoal.SeriesByName("used_memory")
	for t := 10 * time.Second; t <= figure7RunTime; t += 10 * time.Second {
		fmt.Fprintf(&b, "%8.0f | %12.1f %12.1f %12.1f\n", t.Seconds(),
			scMem.At(t)/float64(mb), spMem.At(t)/float64(mb), nvMem.At(t)/float64(mb))
	}
	fmt.Fprintf(&b, "\n  SmartConf  %s\n", sparkline(scMem, 60, figure7RunTime))
	fmt.Fprintf(&b, "  SinglePole %s (ends at OOM)\n", sparkline(spMem, 60, endOf(spMem)))
	fmt.Fprintf(&b, "  NoVirtGoal %s (ends at OOM)\n", sparkline(nvMem, 60, endOf(nvMem)))
	return b.String()
}

// Figure 8: two interacting PerfConfs — HB3813's request-queue bound and
// HB6728's response-queue bound — registered on ONE super-hard memory goal
// through the Manager, which derives the §5.4 interaction factor N=2 from
// the system file. The workload starts write-heavy and adds reads at ~50 s;
// memory must never exceed the constraint while both knobs adapt.

// Figure8 holds the run's series.
type Figure8 struct {
	Mem       Series
	ReqKnob   Series
	RespKnob  Series
	Goal      float64
	OOM       bool
	OOMAt     time.Duration
	Completed int64
}

const figure8RunTime = 240 * time.Second

const figure8Sys = `
/* SmartConf.sys for the interacting-queues study */
ipc.server.max.queue.size @ memory_consumption
ipc.server.max.queue.size = 0
ipc.server.max.queue.size.min = 0
ipc.server.max.queue.size.max = 5000

ipc.server.response.queue.maxsize @ memory_consumption
ipc.server.response.queue.maxsize = 0
ipc.server.response.queue.maxsize.min = 0
ipc.server.response.queue.maxsize.max = 1e9
`

const figure8Goals = `
memory_consumption.goal = 519045120  /* 495 MB */
memory_consumption.goal.superhard = 1
`

// BuildFigure8 runs the interacting-controllers study with the Manager
// deriving the §5.4 interaction factor (N = 2) from the system file.
func BuildFigure8() Figure8 {
	return buildFigure8(2)
}

// buildFigure8 runs the study with the interaction factor forced to n
// (n = 1 is the naive-composition ablation). Runs are memoized so the
// interaction-factor ablation shares the figure's N=2 run.
func buildFigure8(n int) Figure8 {
	return memoKeyed("HB3813+HB6728", fmt.Sprintf("N=%d", n), "figure8", 0,
		func() Figure8 { return buildFigure8Uncached(n) })
}

func buildFigure8Uncached(n int) Figure8 {
	s := newScenarioSim()
	heap := memsim.NewHeap(rpcHeapCapacity)
	cfg := hb6728Config()
	sv := rpcserver.New(s, heap, cfg)

	reqProfile := ProfileHB3813()
	respProfile := ProfileHB6728()
	var reqConf, respConf *smartconf.IndirectConf
	if n == 2 {
		// The production path: the Manager counts both bindings on the
		// super-hard metric and engages N = 2 automatically.
		mgr := mustSynth(smartconf.NewManager(
			strings.NewReader(figure8Sys),
			strings.NewReader(figure8Goals),
			smartconf.WithProfileSource(func(conf string) (*smartconf.Profile, error) {
				if conf == "ipc.server.max.queue.size" {
					return publicProfile(reqProfile), nil
				}
				return publicProfile(respProfile), nil
			}),
		))
		reqConf = mustSynth(mgr.IndirectConf("ipc.server.max.queue.size", nil))
		respConf = mustSynth(mgr.IndirectConf("ipc.server.response.queue.maxsize", nil))
	} else {
		// Ablation: standalone controllers that each claim the full error.
		mk := func(name string, max float64, p *smartconf.Profile) *smartconf.IndirectConf {
			return mustSynth(smartconf.NewIndirect(smartconf.Spec{
				Name: name, Metric: "memory_consumption",
				Goal: float64(rpcMemoryGoal), SuperHard: true,
				Min: 0, Max: max, Interaction: n,
			}, p, nil))
		}
		reqConf = mk("ipc.server.max.queue.size", 5000, publicProfile(reqProfile))
		respConf = mk("ipc.server.response.queue.maxsize", 1e9, publicProfile(respProfile))
	}
	sv.BeforeAdmit = func() {
		reqConf.SetPerf(float64(heap.Used()), float64(sv.QueueLen()))
		sv.SetMaxQueue(reqConf.Conf())
	}
	sv.BeforeRespond = func() {
		respConf.SetPerf(float64(heap.Used()), float64(sv.RespBytes()))
		sv.SetMaxRespBytes(int64(respConf.Value()))
	}

	f := Figure8{Goal: float64(rpcMemoryGoal)}
	heap.OnOOM(func() { f.OOM, f.OOMAt = true, s.Now() })

	f.Mem = Series{Name: "used_memory", Unit: "bytes"}
	f.ReqKnob = Series{Name: "max.queue.size", Unit: "items"}
	f.RespKnob = Series{Name: "response.queue.maxsize", Unit: "bytes"}
	s.Every(time.Second, time.Second, func() bool {
		f.Mem.Points = append(f.Mem.Points, Point{s.Now(), float64(heap.Used())})
		f.ReqKnob.Points = append(f.ReqKnob.Points, Point{s.Now(), float64(sv.MaxQueue())})
		f.RespKnob.Points = append(f.RespKnob.Points, Point{s.Now(), float64(sv.RespBytes())})
		return s.Now() < figure8RunTime && !heap.OOM()
	})

	// Write workload from the start; reads join at ~50 s (the paper's
	// second-workload arrival).
	writes := workload.NewYCSB(88, 1000, workload.YCSBPhase{WriteRatio: 1, RequestBytes: 1 * mb})
	s.Every(0, 50*time.Millisecond, func() bool {
		sv.Offer(writes.NextOp())
		return s.Now() < figure8RunTime && !heap.OOM()
	})
	reads := workload.NewYCSB(89, 1000, workload.YCSBPhase{WriteRatio: 0, RequestBytes: 4 << 10})
	s.Every(50*time.Second, 60*time.Millisecond, func() bool {
		sv.Offer(hb6728Op(reads.NextOp()))
		return s.Now() < figure8RunTime && !heap.OOM()
	})

	s.RunUntil(figure8RunTime)
	f.Completed = sv.Completed()
	return f
}

// RenderFigure8 prints the shared-goal study.
func RenderFigure8(f Figure8) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 8: two interacting PerfConfs on one super-hard memory goal (reads join at 50s)")
	if f.OOM {
		fmt.Fprintf(&b, "VIOLATION: OOM at %.0fs\n", f.OOMAt.Seconds())
	} else {
		fmt.Fprintf(&b, "memory never exceeded the %.0fMB constraint; %d calls completed\n",
			f.Goal/float64(mb), f.Completed)
	}
	fmt.Fprintf(&b, "\n%8s | %10s | %12s %16s\n", "t(s)", "memMB", "max.queue", "resp.queueMB")
	for t := 10 * time.Second; t <= figure8RunTime; t += 10 * time.Second {
		fmt.Fprintf(&b, "%8.0f | %10.1f | %12.0f %16.1f\n", t.Seconds(),
			f.Mem.At(t)/float64(mb), f.ReqKnob.At(t), f.RespKnob.At(t)/float64(mb))
	}
	fmt.Fprintf(&b, "\n  memory     %s\n", sparkline(f.Mem, 60, figure8RunTime))
	fmt.Fprintf(&b, "  req knob   %s\n", sparkline(f.ReqKnob, 60, figure8RunTime))
	fmt.Fprintf(&b, "  resp bytes %s\n", sparkline(f.RespKnob, 60, figure8RunTime))
	return b.String()
}

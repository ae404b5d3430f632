package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/cluster"
	"smartconf/internal/core"
	"smartconf/internal/experiments/engine"
	"smartconf/internal/memsim"
	"smartconf/internal/rpcserver"
	"smartconf/internal/sim"
	"smartconf/internal/stat"
	"smartconf/internal/workload"
)

// The fleet scenario: N RPC servers behind a key-affinity router, one
// SmartConf control plane. It is the cluster-scale version of HB3813 —
// the same queue-size knob, but now N of them plus a global admission knob,
// all guarding ONE hard fleet-wide memory goal through the §5.4 interaction
// factor (N+1 controllers share the goal), layered over per-node soft p99
// goals. Skewed zipfian traffic makes the per-node loads unequal (so no
// single static bound fits every node), and a chaos-injected instance loss
// mid-run shifts all of it: the survivors inherit the victim's keys and its
// evacuated requests, and their controllers must re-tighten while the
// static fleets either OOM or leave throughput on the table.

const (
	fleetNodes   = 4
	fleetSeed    = int64(6001)
	fleetRunTime = 420 * time.Second
	// Workload stops before the horizon so the drain tail is observable.
	fleetLoadUntil = 400 * time.Second
	// One member dies mid-run and comes back late; the victim is drawn from
	// the chaos plan's seeded source.
	fleetLossAt    = 160 * time.Second
	fleetRestartAt = 300 * time.Second
	// fleetHeapCapacity is each member's heap. Fleet members get more
	// per-node headroom than the single-node HB3813 server (768 vs 512 MB)
	// because survivors must absorb a dead member's keys AND its evacuated
	// requests; the binding constraint is the fleet-wide goal below, not the
	// per-node heap.
	fleetHeapCapacity = 768 * mb
	// fleetMemGoal is the hard fleet-wide memory goal: the sum of all member
	// heaps must stay under it. Raw fleet capacity is
	// fleetNodes × fleetHeapCapacity = 3072 MB; the goal is set well below
	// it, in the same spirit as Figure 6's 495-of-512 MB goal — the operator
	// buys a memory budget for the whole fleet, not per box.
	fleetMemGoal = 1850 * mb
	// fleetP99Goal is each node's soft latency goal, as in the SLA extension.
	fleetP99Goal = slaGoalSec
)

// FleetResult is the outcome of one fleet run under one policy. All fields
// are exported: results round-trip through the persistent run cache as JSON.
type FleetResult struct {
	Policy Policy
	Nodes  int
	// Lost counts members killed by the chaos plan.
	Lost int

	// ConstraintMet reports the hard fleet-wide memory goal: the summed
	// heaps never exceeded fleetMemGoal and no member OOM'd.
	ConstraintMet bool
	Violation     string
	ViolatedAt    time.Duration
	// WorstMem is the peak summed heap usage (bytes, 1 s samples).
	WorstMem float64

	// SoftGoalMet reports the per-node soft goal: the worst post-convergence
	// p99 across live members stayed within the SLA (with the same 10%
	// slack the SLA extension allows a soft goal).
	SoftGoalMet bool
	WorstP99    float64

	// Throughput is the trade-off: completed operations per second,
	// aggregated across the fleet.
	Throughput float64

	Refused      int64
	Throttled    int64
	Redispatched int64
	// FinalBounds is each node's queue bound at the end of the run;
	// FinalAdmission is the global admission knob (-1 = unbounded).
	FinalBounds    []int
	FinalAdmission int

	// FleetMem is the summed-heap time series behind the hard-goal check.
	FleetMem Series
}

// ProfileFleetMemory is the fleet-scale profiling campaign: node 0's queue
// bound is pinned at each setting while every other node sits at a reference
// bound, and the FLEET's total memory is measured — the partial derivative
// ∂(fleet memory)/∂(one node's queue occupancy) that every per-node guard
// and the admission controller linearize around. The deputy axes (one
// node's queue length, the fleet's total in-flight count) share this slope:
// each queued item pins one ~1 MB payload somewhere in the fleet.
func ProfileFleetMemory() core.Profile {
	return memoProfile("FLEET-MEM", func() core.Profile {
		const reference = 60
		return profileSweep([]float64{40, 120, 240, 400}, func(setting float64, record func(setting, measurement float64)) {
			s := newScenarioSim()
			rng := rand.New(rand.NewSource(fleetSeed))
			heaps := make([]*memsim.Heap, fleetNodes)
			servers := make([]*rpcserver.Server, fleetNodes)
			for i := range servers {
				heaps[i] = memsim.NewHeap(4 << 30) // profiling must not OOM
				servers[i] = rpcserver.New(s, heaps[i], rpcConfig())
				servers[i].SetID(i)
				if i == 0 {
					servers[i].SetMaxQueue(int(setting))
				} else {
					servers[i].SetMaxQueue(reference)
				}
			}
			// Continuous overload (arrivals outpace service) keeps every
			// queue pinned at its bound — the saturated regime the linear
			// model must capture; sparse bursts would sample empty queues
			// and profile the idle baseline instead.
			taken := 0
			s.Every(10*time.Second, 5*time.Second, func() bool {
				if taken < 10 {
					var total int64
					for _, h := range heaps {
						total += h.Used()
					}
					record(setting, float64(total))
					taken++
				}
				return taken < 10
			})
			// Every node gets saturating bursts so each queue sits at its
			// bound — the regime the linear model is fit for.
			for i := range servers {
				sv := servers[i]
				w := &rpcWorkload{
					gen:        workload.NewYCSB(fleetSeed+int64(i), 256, workload.YCSBPhase{WriteRatio: 1, RequestBytes: 1 * mb}),
					burstSize:  2 * hb3813BurstSize,
					burstEvery: hb3813BurstEvery,
					spacing:    12 * time.Millisecond, // 600 ops over 7.2 s: back-to-back bursts
					phases:     []workload.YCSBPhase{{Name: "profiling", WriteRatio: 1, RequestBytes: 1 * mb}},
				}
				w.run(s, 70*time.Second, rng, func(op workload.Op) { sv.Offer(op) })
			}
			s.RunUntil(70 * time.Second)
		})
	})
}

// fleetRun is one RPC fleet scenario. The `fleet` artifact's uniform fleet
// and the mixed-heap fleet are two values of it: run wires the members, the
// controllers, the coordinator ticks, the probes and the verdict for both.
type fleetRun struct {
	// heaps are the member heap capacities, one member each.
	heaps []int64
	// The run ends at runTime; the workload stops at loadUntil, before it,
	// so the drain tail is observable.
	runTime, loadUntil time.Duration
	// nodeMax is a node's memory-guard Spec.Max given its heap: the knob's
	// per-node capacity, which the fleet-wide goal cannot see.
	nodeMax func(heap int64) float64
	// armed arms the seeded loss/restart plan and the per-node soft p99
	// layer (latency guards, their tick and the p99 probe).
	armed bool
}

// RunFleetScenario executes the fleet scenario under one policy. Uncached:
// BuildFleetComparison memoizes around it.
func RunFleetScenario(p Policy) FleetResult {
	heaps := make([]int64, fleetNodes)
	for i := range heaps {
		heaps[i] = fleetHeapCapacity
	}
	return fleetRun{
		heaps: heaps, runTime: fleetRunTime, loadUntil: fleetLoadUntil,
		// The fleet-wide goal cannot see one member hogging the shared
		// budget past its OWN heap (base 280 MB + noise in a 768 MB heap
		// leaves ~450 queued MB), so the capacity bound encodes it.
		nodeMax: func(int64) float64 { return 400 },
		armed:   true,
	}.run(p)
}

// RunFleetHeteroScenario executes the SmartConf fleet over the heterogeneous
// member set (fleethetero.go): no chaos and no p99 layer (the uniform
// scenario owns the loss story), skewed zipfian load, the same hard
// fleet-wide memory goal, per-node Spec.Max from heteroNodeMaxQueue.
// Uncached: BuildFleetHetero memoizes around it.
func RunFleetHeteroScenario() FleetResult {
	return fleetRun{
		heaps:   fleetHeteroHeaps,
		runTime: 240 * time.Second, loadUntil: 220 * time.Second,
		nodeMax: heteroNodeMaxQueue,
	}.run(SmartConf())
}

// run executes the fleet under one policy. The simulator breaks same-instant
// ties by scheduling order, so run schedules in one fixed order for every
// value: heap noise, controller ticks, loss plan, memory probe, p99 probe,
// workload.
func (f fleetRun) run(p Policy) FleetResult {
	nodes := len(f.heaps)
	s := newScenarioSim()
	rng := rand.New(rand.NewSource(fleetSeed))

	fleet := cluster.NewFleet[workload.Op](cluster.KeyAffinity)
	heaps := make([]*memsim.Heap, nodes)
	servers := make([]*rpcserver.Server, nodes)
	targets := make([]chaos.Killable, nodes)
	bound := 0 // a SmartConf fleet starts closed; its guards open it
	if p.Kind == StaticPolicy {
		bound = int(p.Static)
	}
	for i, capacity := range f.heaps {
		heaps[i] = memsim.NewHeap(capacity)
		servers[i] = addRPCMember(s, fleet, heaps[i], i, bound)
		targets[i] = servers[i]
		heapNoise(s, heaps[i], rand.New(rand.NewSource(fleetSeed+100+int64(i))), rpcNoiseMax, f.runTime)
	}
	fleetMem := func() float64 {
		var total int64
		for _, h := range heaps {
			total += h.Used()
		}
		return float64(total)
	}

	var coord *cluster.Coordinator
	if p.Kind == SmartConfPolicy {
		coord = f.coordinate(s, fleet, fleetMem, servers)
	}
	res := FleetResult{Policy: p, Nodes: nodes, FinalAdmission: -1}
	lost := new(int)
	if f.armed {
		lost = armLossRestart(s, fleetSeed, fleetLossAt, fleetRestartAt, targets)
	}

	res.FleetMem = Series{Name: "fleet_memory", Unit: "bytes"}
	s.Every(time.Second, time.Second, func() bool {
		res.FleetMem.Points = append(res.FleetMem.Points, Point{s.Now(), fleetMem()})
		return s.Now() < f.runTime
	})
	if f.armed {
		s.Every(5*time.Second, 5*time.Second, func() bool {
			if s.Now() > 60*time.Second { // after convergence
				for _, sv := range servers {
					if !sv.Alive() {
						continue
					}
					if v := sv.Latency().Percentile(99).Seconds(); v > res.WorstP99 {
						res.WorstP99 = v
					}
				}
			}
			return s.Now() < f.runTime
		})
	}

	// Offered load deliberately exceeds the fleet's service capacity between
	// bursts: whatever a fleet cannot queue, it must refuse, so deeper queues
	// buy throughput and shallow ones leave it on the table — HB3813's
	// trade-off at fleet scale. Zipfian keys under key-affinity routing make
	// the per-node shares unequal.
	driveRPCFleet(s, fleet, fleetSeed+1, 256, hb3813BurstSize*nodes, f.loadUntil, rng)
	s.RunUntil(f.runTime)
	res.Lost = *lost

	res.ConstraintMet = true
	if met, at, worst := evalUpperBound(res.FleetMem, func(time.Duration) float64 { return float64(fleetMemGoal) }); !met {
		res.ConstraintMet = false
		res.Violation = fmt.Sprintf("fleet memory %.0f MB > goal %d MB", worst/float64(mb), fleetMemGoal/mb)
		res.ViolatedAt = at
	}
	for i, h := range heaps {
		if h.OOM() {
			res.ConstraintMet = false
			if res.Violation == "" {
				res.Violation = fmt.Sprintf("node %d OOM", i)
			}
		}
	}
	res.WorstMem = res.FleetMem.Max()
	// Soft: 10% SLA slack. Without the p99 layer WorstP99 stays 0 and the
	// goal is met trivially.
	res.SoftGoalMet = res.WorstP99 <= fleetP99Goal*1.1

	var completed int64
	for _, sv := range servers {
		completed += sv.Completed()
		res.FinalBounds = append(res.FinalBounds, sv.MaxQueue())
	}
	res.Throughput = float64(completed) / f.runTime.Seconds()
	res.Refused = fleet.Refused()
	res.Throttled = fleet.Throttled()
	res.Redispatched = fleet.Redispatched()
	if coord != nil {
		if a := coord.Admission(); a != math.MaxInt {
			res.FinalAdmission = a
		}
	}
	return res
}

// coordinate builds the SmartConf control plane over the members and
// schedules its ticks. Each node gets a memory guard against the hard
// fleet-wide goal and, when the p99 layer is armed, a latency guard against
// the soft per-node goal; a global admission knob sits above them.
func (f fleetRun) coordinate(s *sim.Simulation, fleet *cluster.Fleet[workload.Op], fleetMem func() float64, servers []*rpcserver.Server) *cluster.Coordinator {
	nodes := len(servers)
	memProfile := publicProfile(ProfileFleetMemory())
	var latProfile *smartconf.Profile
	var latCap int
	if f.armed {
		slaProf := profileSLA()
		latProfile = publicProfile(slaProf)
		latCap = slaCapacity(slaProf, fleetP99Goal)
	}
	controls := make([]cluster.NodeControl, nodes)
	for i, sv := range servers {
		controls[i] = cluster.NodeControl{
			Inst: sv,
			Memory: mustSynth(smartconf.NewIndirect(smartconf.Spec{
				Name:        fmt.Sprintf("node%d/ipc.server.max.queue.size#fleet-mem", i),
				Metric:      "fleet_memory_consumption",
				Goal:        float64(fleetMemGoal),
				Hard:        true,
				Interaction: nodes + 1, // N node guards + the admission knob
				Min:         0, Max: f.nodeMax(f.heaps[i]),
			}, memProfile, nil)),
			Deputy: func() float64 { return float64(sv.QueueLen()) },
			Apply:  func(bound int) { sv.SetMaxQueue(bound) },
		}
		if !f.armed {
			continue
		}
		// The knob's capacity under the soft goal is model-derived: the
		// deepest queue at which the profiled line still predicts
		// p99 ≤ goal. Starting AT capacity and letting feedback only trim
		// below it keeps the integrator's windup bounded by model accuracy
		// — while the memory layer binds, the latency proposal can sit at
		// most at the goal setting, never at an arbitrary cap a transient
		// could then blow past the SLA with.
		controls[i].Latency = mustSynth(smartconf.New(smartconf.Spec{
			Name:    fmt.Sprintf("node%d/ipc.server.max.queue.size#p99", i),
			Metric:  "p99_latency",
			Goal:    fleetP99Goal,
			Hard:    false,
			Initial: float64(latCap),
			Min:     1, Max: float64(latCap),
		}, latProfile))
		controls[i].SenseLatency = func() float64 { return sv.Latency().Percentile(99).Seconds() }
	}
	admission := mustSynth(smartconf.NewIndirect(smartconf.Spec{
		Name:        "fleet/max.in.flight",
		Metric:      "fleet_memory_consumption",
		Goal:        float64(fleetMemGoal),
		Hard:        true,
		Interaction: nodes + 1,
		Min:         0, Max: 20000,
	}, memProfile, nil))
	coord := cluster.NewCoordinator(fleet, fleetMem, admission, controls)
	// Two cadences (DESIGN.md §5e). The memory guards run on the paper's
	// setPerf-on-every-enqueue idiom — BeforeDispatch senses the LIVE
	// deputies mid-burst, so each proposed bound is "current queue + my
	// share of the remaining fleet headroom" while a burst is arriving, not
	// a stale between-burst snapshot of an empty queue. The slow 1 s tick
	// keeps the guards moving when no requests arrive (e.g. while evacuated
	// work drains after a loss). The latency controllers run on the slow
	// p99-window cadence (the SLA extension's 15 s rationale) with
	// anti-windup in the coordinator.
	fleet.BeforeDispatch = coord.StepMemory
	s.Every(time.Second, time.Second, func() bool {
		coord.StepMemory()
		return s.Now() < f.runTime
	})
	if f.armed {
		s.Every(15*time.Second, 15*time.Second, func() bool {
			coord.StepLatency()
			return s.Now() < f.runTime
		})
	}
	return coord
}

// addRPCMember builds RPC server i on heap at queue bound maxQueue, joins it
// to the fleet, and re-dispatches the requests its death evacuates.
func addRPCMember(s *sim.Simulation, fleet *cluster.Fleet[workload.Op], heap *memsim.Heap, i, maxQueue int) *rpcserver.Server {
	sv := rpcserver.New(s, heap, rpcConfig())
	sv.SetID(i)
	sv.SetMaxQueue(maxQueue)
	sv.OnEvacuate = func(op workload.Op) { fleet.Redispatch(cluster.Request{Key: op.Key}, op) }
	fleet.Add(sv, 1, sv.Offer)
	return sv
}

// driveRPCFleet offers HB3813's bursts of 1 MB writes over keys zipfian keys
// to the fleet until until.
func driveRPCFleet(s *sim.Simulation, fleet *cluster.Fleet[workload.Op], genSeed int64, keys uint64, burstSize int, until time.Duration, rng *rand.Rand) {
	w := &rpcWorkload{
		gen:        workload.NewYCSB(genSeed, keys, workload.YCSBPhase{WriteRatio: 1, RequestBytes: 1 * mb}),
		burstSize:  burstSize,
		burstEvery: hb3813BurstEvery,
		spacing:    hb3813Spacing,
		phases:     []workload.YCSBPhase{{Name: "steady", WriteRatio: 1, RequestBytes: 1 * mb}},
	}
	w.run(s, until, rng, func(op workload.Op) { fleet.Dispatch(cluster.Request{Key: op.Key}, op) })
}

// armLossRestart arms a seeded plan that kills one member at lossAt and
// brings the same victim back at restartAt. It returns the count of live
// members the plan's kills took down, read once the run is over.
func armLossRestart(s *sim.Simulation, seed int64, lossAt, restartAt time.Duration, targets []chaos.Killable) *int {
	killed := new(int)
	counted := make([]chaos.Killable, len(targets))
	for i, t := range targets {
		counted[i] = killCounter{t, killed}
	}
	plan := chaos.Plan{Name: "fleet-loss", Seed: seed, Faults: []chaos.Fault{
		chaos.InstanceLoss{At: lossAt, Targets: counted, Victim: -1},
		chaos.InstanceRestart{At: restartAt, Targets: counted, Victim: -1},
	}}
	plan.Arm(s, nil)
	return killed
}

// killCounter is a fleet member whose kills are counted when they take it
// down.
type killCounter struct {
	chaos.Killable
	killed *int
}

func (k killCounter) Kill() {
	alive := k.Alive()
	k.Killable.Kill()
	if alive && !k.Alive() {
		*k.killed++
	}
}

// fleetStaticGrid is the static sweep the SmartConf fleet is compared
// against: one uniform per-node bound, no admission bound — what an operator
// without per-node controllers would deploy fleet-wide.
func fleetStaticGrid() []Policy {
	return []Policy{Static(40), Static(90), Static(180), Static(400), Static(800)}
}

// BuildFleetComparison runs the SmartConf fleet plus the static sweep; the
// independent runs fan out across the worker pool.
func BuildFleetComparison() []FleetResult {
	policies := append([]Policy{SmartConf()}, fleetStaticGrid()...)
	return engine.MapSlice(policies, func(p Policy) FleetResult {
		return memoKeyed("FLEET", policyKey(p), "fleet/loss", fleetSeed,
			func() FleetResult { return RunFleetScenario(p) })
	})
}

// FleetQualifies reports whether a fleet run met BOTH goals — the bar a
// static fleet must clear before its throughput is even comparable.
func FleetQualifies(r FleetResult) bool { return r.ConstraintMet && r.SoftGoalMet }

// RenderFleet formats the fleet comparison.
func RenderFleet(results []FleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet: %d× RPC server, key-affinity router, skewed zipf load; loss@%ds restart@%ds\n",
		fleetNodes, int(fleetLossAt.Seconds()), int(fleetRestartAt.Seconds()))
	fmt.Fprintf(&b, "hard goal: fleet memory ≤ %d MB; soft goal: per-node p99 ≤ %.0fs; trade-off: ops/s\n",
		fleetMemGoal/mb, fleetP99Goal)
	fmt.Fprintf(&b, "%-16s %7s %10s %7s %8s %9s %9s %7s  %s\n",
		"policy", "mem-ok", "peak(MB)", "p99-ok", "p99(s)", "ops/s", "refused", "redisp", "final bounds / admission")
	var best *FleetResult
	var sc *FleetResult
	for i := range results {
		r := &results[i]
		if r.Policy.Kind == SmartConfPolicy {
			sc = r
		} else if FleetQualifies(*r) && (best == nil || r.Throughput > best.Throughput) {
			best = r
		}
		memOK, p99OK := "ok", "ok"
		if !r.ConstraintMet {
			memOK = "X"
		}
		if !r.SoftGoalMet {
			p99OK = "X"
		}
		adm := "∞"
		if r.FinalAdmission >= 0 {
			adm = fmt.Sprintf("%d", r.FinalAdmission)
		}
		fmt.Fprintf(&b, "%-16s %7s %10.0f %7s %8.2f %9.2f %9d %7d  %v / %s\n",
			r.Policy, memOK, r.WorstMem/float64(mb), p99OK, r.WorstP99,
			r.Throughput, r.Refused, r.Redispatched, r.FinalBounds, adm)
	}
	switch {
	case sc == nil:
	case !FleetQualifies(*sc):
		fmt.Fprintf(&b, "SmartConf fleet FAILED a goal: %s\n", sc.Violation)
	case best == nil:
		fmt.Fprintf(&b, "no static fleet met both goals; SmartConf did, at %.2f ops/s\n", sc.Throughput)
	default:
		fmt.Fprintf(&b, "best qualifying static: %s at %.2f ops/s → SmartConf ×%.2f\n",
			best.Policy, best.Throughput, sc.Throughput/best.Throughput)
	}
	return b.String()
}

// slaCapacity inverts the profiled latency model: the deepest setting at
// which the fitted line still predicts the metric within the goal. It is the
// soft-goal knob's capacity — the feedback controller starts there and only
// trims below it when the measured plant deviates from the model.
func slaCapacity(p core.Profile, goal float64) int {
	xs := make([]float64, 0, len(p.Settings))
	ys := make([]float64, 0, len(p.Settings))
	for _, s := range p.Settings {
		if len(s.Samples) == 0 {
			continue
		}
		xs = append(xs, s.Setting)
		ys = append(ys, stat.Mean(s.Samples))
	}
	fit, err := stat.LinearFit(xs, ys)
	if err != nil || fit.Slope <= 0 {
		panic(fmt.Sprintf("experiments: degenerate SLA profile: %v", err))
	}
	cap := int(math.Floor((goal - fit.Intercept) / fit.Slope))
	if cap < 1 {
		cap = 1
	}
	return cap
}

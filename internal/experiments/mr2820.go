package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/core"
	"smartconf/internal/experiments/engine"
	"smartconf/internal/mapred"
	"smartconf/internal/proptest"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// MR2820: mapreduce local.dir.minspacestart decides how much free local
// disk a worker must have before starting another task. The worker disks
// are shared with a fluctuating co-tenant: admit a task with too little
// headroom and it runs out of disk mid-write, failing the job (the hard
// out-of-disk constraint). Demand too much headroom and workers idle while
// space was actually sufficient, stretching job completion time (the
// trade-off metric).
//
// Paper flags: Y-Y-Y (conditional, direct, hard).

const (
	mr2820DiskGoal = 1014 * mb // keep ≥10 MB of the 1 GB disk free (hard)
)

func mr2820Config() mapred.Config {
	return mapred.Config{
		Workers:           2,
		DiskCapacityBytes: 1 << 30,
		TaskBytesPerSec:   16 * mb,
		WriteChunks:       8,
		ScheduleInterval:  time.Second,
	}
}

// The paper's WordCount phases (Table 6): WordCount(input, split,
// parallelism). Phase 1's 64 MB splits write 64 MB intermediates per task;
// phase 2's 128 MB splits double the per-task disk footprint.
func mr2820Jobs() []workload.WordCountJob {
	p1 := workload.WordCountJob{Name: "phase-1", InputBytes: 640 * mb, SplitBytes: 64 * mb, Parallelism: 2, SpillRatio: 1.25}
	p2 := workload.WordCountJob{Name: "phase-2", InputBytes: 640 * mb, SplitBytes: 128 * mb, Parallelism: 2, SpillRatio: 1.25}
	return []workload.WordCountJob{p1, p1, p1, p2, p2, p2}
}

// mr2820Spec declares the minspacestart controller.
func mr2820Spec() smartconf.Spec {
	return smartconf.Spec{
		Name:    "local.dir.minspacestart",
		Metric:  "disk_consumption",
		Goal:    float64(mr2820DiskGoal),
		Hard:    true,
		Initial: 512 * float64(mb), // a uselessly conservative start
		Min:     0, Max: 1 << 30,
	}
}

func newMR2820Conf(opts ...smartconf.Option) *smartconf.Conf {
	return mustSynth(smartconf.New(mr2820Spec(), publicProfile(ProfileMR2820()), opts...))
}

// mr2820Occupancy is the sensor: it anticipates, reporting the occupancy
// the candidate admission WOULD create (the Master knows the task's
// footprint), so the controller's bound already covers the task about to
// start.
func mr2820Occupancy(w *mapred.Worker, next int64) float64 {
	return float64(w.Disk.Used() + w.Committed() + next)
}

// mr2820CoTenant drives the disturbance: every 5 s each worker's co-tenant
// footprint random-walks within [low, high], a band env's surge lifts by
// 100 MB × (factor−1) (nil: no surge), while more holds.
func mr2820CoTenant(s *sim.Simulation, c *mapred.Cluster, rng *rand.Rand, low, high, maxStep int64, env *chaos.Env, more func() bool) {
	current := make([]int64, len(c.Workers()))
	for i, w := range c.Workers() {
		current[i] = (low + high) / 2
		w.SetCoTenant(current[i])
	}
	s.Every(5*time.Second, 5*time.Second, func() bool {
		bump := int64((env.SurgeFactor() - 1) * float64(100*mb))
		for i, w := range c.Workers() {
			step := int64(rng.Intn(int(2*maxStep+1))) - maxStep
			next := current[i] + step
			if next < low+bump {
				next = low + bump
			}
			if next > high+bump {
				next = high + bump
			}
			current[i] = next
			w.SetCoTenant(next)
		}
		return more()
	})
}

// mr2820RunJobs runs the job sequence back to back from t = 1 s, stopping
// the simulation after the last; done receives each job's result.
func mr2820RunJobs(s *sim.Simulation, c *mapred.Cluster, done func(mapred.JobResult)) {
	jobs := mr2820Jobs()
	var runNext func(i int)
	runNext = func(i int) {
		if i >= len(jobs) {
			s.Stop()
			return
		}
		c.RunJob(jobs[i], func(r mapred.JobResult) {
			done(r)
			runNext(i + 1)
		})
	}
	s.At(time.Second, func() { runNext(0) })
}

// ProfileMR2820 profiles peak disk consumption against the pinned
// minspacestart under the profiling workload: WordCount(2 GB, 64 MB, ×1)
// with the co-tenant walking. The campaign runs once process-wide and its
// four pinned-setting runs fan out across the worker pool.
func ProfileMR2820() core.Profile {
	return memoProfile("MR2820", func() core.Profile {
		job := workload.WordCountJob{Name: "profiling", InputBytes: 2 << 30, SplitBytes: 64 * mb, Parallelism: 1, SpillRatio: 1.25}
		settings := []float64{50 * float64(mb), 150 * float64(mb), 250 * float64(mb), 350 * float64(mb)}
		return profileSweep(settings, func(setting float64, record func(setting, measurement float64)) {
			s := newScenarioSim()
			rng := rand.New(rand.NewSource(2820))
			c := mapred.New(s, mr2820Config(), int64(setting))
			// The profiling run stresses the disks (a heavier co-tenant than the
			// evaluation) so the knob↔occupancy relation is identifiable — the
			// paper's advice that wider profiling workloads make the controller
			// more robust.
			mr2820CoTenant(s, c, rng, 550*mb, 950*mb, 120*mb, nil, func() bool { return s.Now() < time.Hour })
			// Time-driven sampling: the scheduler hook only fires when a slot is
			// idle, which would systematically miss the occupancy of running
			// tasks and flatten the model.
			taken := 0
			s.Every(10*time.Second, 5*time.Second, func() bool {
				if taken < 10 {
					var max int64
					for _, w := range c.Workers() {
						if v := w.Disk.Used() + w.Committed(); v > max {
							max = v
						}
					}
					record(setting, float64(max))
					taken++
				}
				return taken < 10
			})
			s.At(time.Second, func() { c.RunJob(job, func(mapred.JobResult) { s.Stop() }) })
			s.RunUntil(time.Hour)
		})
	})
}

// RunMR2820 executes the six-job evaluation (three phase-1 WordCounts, then
// three phase-2 WordCounts) under the given policy.
//
// Out-of-disk is a race between task admission and the co-tenant's walk, so
// a single trajectory is too noisy to judge a policy: the run repeats over
// five co-tenant seeds; the constraint must hold on every one and the
// trade-off is the mean makespan (the paper's testbed runs average the same
// kind of environmental variance).
func RunMR2820(p Policy) Result {
	agg := Result{Issue: "MR2820", Policy: p, ConstraintMet: true}
	var total float64
	const seeds = 5
	results := engine.Map(seeds, func(i int) Result {
		seed := 2821 + int64(i)
		return memoKeyed("MR2820", policyKey(p), "seed-race", seed,
			func() Result { return runMR2820Seed(p, seed) })
	})
	for seed, r := range results {
		total += r.Tradeoff
		if !r.ConstraintMet && agg.ConstraintMet {
			agg.ConstraintMet = false
			agg.Violation = r.Violation
			agg.ViolatedAt = r.ViolatedAt
		}
		if seed == 0 {
			agg.Series = r.Series
			agg.TradeoffName = r.TradeoffName
			agg.HigherIsBetter = r.HigherIsBetter
		}
	}
	agg.Tradeoff = total / seeds
	return agg
}

func runMR2820Seed(p Policy, seed int64) Result {
	walk := mr2820Walk{high: 740 * mb, step: 40 * mb}
	// RunUntil's horizon is a safety bound; the jobs normally end far earlier.
	return newMR2820Rig(newScenarioSim(), 4*time.Hour, seed, walk).runFigure(p, nil)
}

// mr2820Walk calibrates the co-tenant's walk (see mr2820CoTenant): the
// band's top, the largest step, and whether the walk ends at the first
// out-of-disk.
type mr2820Walk struct {
	high, step int64
	haltAtOOD  bool
}

// newMR2820Rig builds the cluster at minspacestart 0 on s. The disturbance
// is the co-tenant walk, calibrated by walk and seeded with seed, for up to
// an hour; the load is the job sequence, which stops the simulation after
// the last job.
func newMR2820Rig(s *sim.Simulation, horizon time.Duration, seed int64, walk mr2820Walk) *rig {
	rng := rand.New(rand.NewSource(seed))
	c := mapred.New(s, mr2820Config(), 0)
	var done []mapred.JobResult
	var curW *mapred.Worker // the chaos loop's sensor reads the admission it is consulted on
	var curNext int64
	return &rig{
		s: s, horizon: horizon,
		attach: func(tick func()) {
			c.BeforeSchedule = func(w *mapred.Worker, next int64) {
				curW, curNext = w, next
				tick()
			}
		},
		smart: func() func(float64) {
			sc := newMR2820Conf()
			// Conditional: consulted at each admission decision. The Master
			// computes the setting and "ships" it to the worker (§6.5's Others
			// row) — here the shipping is the SetMinSpaceStart call.
			c.BeforeSchedule = func(w *mapred.Worker, next int64) {
				sc.SetPerf(mr2820Occupancy(w, next))  //sc:MR2820:sensor
				c.SetMinSpaceStart(int64(sc.Value())) //sc:MR2820:other
			}
			return nil
		},
		actuate: func(v float64) { c.SetMinSpaceStart(int64(v)) },
		disturb: func(env *chaos.Env) {
			mr2820CoTenant(s, c, rng, 550*mb, walk.high, walk.step, env, func() bool {
				return s.Now() < time.Hour && !(walk.haltAtOOD && c.OOD())
			})
		},
		load: func(*chaos.Env) { mr2820RunJobs(s, c, func(r mapred.JobResult) { done = append(done, r) }) },
		probe: []column{
			{Series{Name: "max_disk_used", Unit: "bytes"}, func() (float64, bool) { return float64(c.MaxDiskUsed()), true }},
			{Series{Name: "minspacestart", Unit: "bytes"}, func() (float64, bool) { return float64(c.MinSpaceStart()), true }},
		},
		more: func() bool { return c.Busy() || s.Now() < 10*time.Second },
		judge: func(res *Result) {
			res.Issue, res.TradeoffName, res.HigherIsBetter = "MR2820", "job-sequence makespan (s)", false
			res.Tradeoff = s.Now().Seconds()
			failedTasks := 0
			for _, r := range done {
				failedTasks += r.FailedTasks
			}
			switch {
			case c.OOD():
				res.Violation = fmt.Sprintf("OOD (%d failed tasks)", failedTasks)
				res.ViolatedAt = firstViolation(res.Series[0], float64(mr2820DiskGoal))
			case len(done) < len(mr2820Jobs()):
				res.Violation = fmt.Sprintf("only %d/%d jobs finished", len(done), len(mr2820Jobs()))
			}
			res.ConstraintMet = res.Violation == ""
		},

		active: 360 * time.Second,
		tune:   chaosTune{noise: 0.02, drop: 0.6, delay: 2 * time.Second, stall: 30 * time.Second},
		knobLo: 0, knobHi: 1 << 30,
		goal: []proptest.Sample{{T: 0, V: float64(mr2820DiskGoal)}},
		// Surge: the co-tenant band jumps up — the scenario's own
		// disturbance, intensified.
		surge: 1.5,
		synth: func(opts []smartconf.Option) func(perf, deputy float64) float64 {
			return directStep(newMR2820Conf(opts...))
		},
		sense: func() (float64, float64) { return mr2820Occupancy(curW, curNext), 0 },
		// Plant shift: the task write rate halves (I/O contention).
		shift: func(start, _ time.Duration) chaos.Fault {
			return chaos.PlantShift{Label: "task-rate-halved", At: start, Apply: func() { c.SetTaskBytesPerSec(8 * mb) }}
		},
		finish: func(rep *proptest.Report) {
			// Drained here means the job sequence ran to completion (the sim
			// stops early on success — the inverse of the fixed-horizon
			// substrates).
			rep.Drained = len(done) == len(mr2820Jobs())
			rep.Progress = int64(len(done))
			rep.Crashed = c.OOD()
			if rep.Crashed {
				rep.CrashedAt = firstViolation(Series{Points: samplesToPoints(rep.Metric)}, float64(mr2820DiskGoal))
			}
		},
	}
}

func firstViolation(s Series, goal float64) time.Duration {
	for _, p := range s.Points {
		if p.V > goal {
			return p.T
		}
	}
	if n := len(s.Points); n > 0 {
		return s.Points[n-1].T
	}
	return 0
}

// MR2820Scenario returns the scenario descriptor.
func MR2820Scenario() Scenario {
	return Scenario{
		ID:                "MR2820",
		Conf:              "local.dir.minspacestart",
		Description:       "decides if a worker has enough disk to run a task; too small, OOD; too big, low utilization (job latency hurts)",
		Flags:             "Y-Y-Y",
		ConstraintName:    "no out-of-disk failures (hard)",
		TradeoffName:      "job-sequence makespan (s)",
		HigherIsBetter:    false,
		ProfilingWorkload: "WordCount(2GB, 64MB, ×1) @ minspace 50/150/250/350MB",
		PhaseWorkloads:    [2]string{"WordCount(640MB, 64MB, ×2) ×3", "WordCount(640MB, 128MB, ×2) ×3"},
		BuggyDefault:      0,
		PatchDefault:      1 * float64(mb), // the patched default (1 MB) — still OODs
		StaticGrid:        []float64{50 * float64(mb), 100 * float64(mb), 150 * float64(mb), 200 * float64(mb), 230 * float64(mb), 260 * float64(mb), 300 * float64(mb), 350 * float64(mb), 420 * float64(mb), 460 * float64(mb)},
		NonOptimal:        300 * float64(mb), // the paper's Figure 5 non-optimal bar
		Run:               RunMR2820,
	}
}

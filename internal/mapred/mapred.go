// Package mapred simulates a small MapReduce cluster for the paper's MR2820
// issue: mapreduce local.dir.minspacestart decides how much free local disk
// a worker must have before it starts another task.
//
// Too small, and a task starts on a nearly-full disk shared with a
// fluctuating co-tenant, runs out of space mid-write and fails the job
// (out-of-disk, the hard constraint). Too large, and workers sit idle while
// space is actually available, stretching job completion time (the
// trade-off metric). The knob is conditional — consulted only at task
// admission — and direct.
package mapred

import (
	"time"

	"smartconf/internal/disksim"
	"smartconf/internal/metrics"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// Config fixes the cluster's capacity parameters.
type Config struct {
	// Workers is the number of worker nodes.
	Workers int
	// DiskCapacityBytes is each worker's local disk size.
	DiskCapacityBytes int64
	// TaskBytesPerSec is a task's intermediate-write rate; a task with
	// intermediate footprint B runs for B/TaskBytesPerSec.
	TaskBytesPerSec int64
	// WriteChunks is how many installments a task's intermediate output is
	// written in (failures can strike mid-task).
	WriteChunks int
	// ScheduleInterval is the master's scheduling period.
	ScheduleInterval time.Duration
}

// DefaultConfig returns a generic cluster calibration (8 MB/s task I/O) for
// the mapred tests and the -scale mapred row. The MR2820 scenarios use their
// own (experiments' mr2820Config: 16 MB/s).
func DefaultConfig() Config {
	return Config{
		Workers:           2,
		DiskCapacityBytes: 1 << 30, // 1 GB local disk per worker
		TaskBytesPerSec:   8 << 20, // 8 MB/s
		WriteChunks:       8,
		ScheduleInterval:  time.Second,
	}
}

// Worker is one node: a local disk shared between task intermediates and a
// co-tenant whose footprint the experiment steers as the disturbance.
type Worker struct {
	ID   int
	Disk *disksim.Disk

	running   int
	committed int64 // admitted-but-unwritten task bytes (reservations)
	coTenant  int64
}

// Committed returns the bytes admitted tasks still intend to write. The
// sum Disk.Used()+Committed() is the forward-looking occupancy sensor the
// MR2820 controller reads: it reflects an admission immediately, before the
// task's writes land.
func (w *Worker) Committed() int64 { return w.committed }

// SetCoTenant steers the co-tenant's footprint toward bytes. The co-tenant
// is polite: it grows only into available space, but it does not care about
// the MapReduce job's needs — that is exactly the disturbance that makes a
// static minspacestart unsafe.
func (w *Worker) SetCoTenant(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	delta := bytes - w.coTenant
	if delta > 0 {
		if free := w.Disk.Free(); delta > free {
			delta = free
		}
		if delta > 0 {
			if err := w.Disk.Write(delta); err != nil {
				return
			}
			w.coTenant += delta
		}
	} else if delta < 0 {
		w.Disk.Delete(-delta)
		w.coTenant += delta
	}
}

// CoTenant returns the co-tenant's current footprint.
func (w *Worker) CoTenant() int64 { return w.coTenant }

// Running returns the number of tasks currently executing on the worker.
func (w *Worker) Running() int { return w.running }

// JobResult summarizes one job run.
type JobResult struct {
	Duration    time.Duration
	Failed      bool
	FailedTasks int
	TotalTasks  int
}

// taskSlot is the in-flight state of one running map task. Slots live in a
// table owned by the Cluster and are recycled through a free list, so a
// steady stream of tasks allocates nothing: the slot index rides in the
// packed event argument instead of a per-task closure.
type taskSlot struct {
	worker     *Worker
	written    int64
	bytes      int64
	chunkBytes int64
	rem        int64
	chunk      int
	chunks     int
	step       time.Duration
	started    time.Duration
}

// jobState is the master's view of the one running job. Map tasks are
// homogeneous (WordCount splits evenly), so the pending queue is a counter
// plus the per-task footprint rather than a slice of identical entries.
type jobState struct {
	job         workload.WordCountJob
	pendingN    int
	taskBytes   int64
	runningN    int
	failedTasks int
	started     time.Duration
	done        func(JobResult)

	mapsDone   int
	reducing   bool
	reducersUp int
}

// Cluster is the simulated MapReduce master plus its workers.
type Cluster struct {
	sim *sim.Simulation
	cfg Config

	workers []*Worker

	minSpaceStart int64 // the knob

	// current points at js while a job is running, nil otherwise; js itself
	// is reused across jobs so back-to-back submission allocates nothing.
	current *jobState
	js      jobState
	// epoch increments per RunJob; events carry the epoch they were
	// scheduled under and no-op when a stale one fires after its job ended.
	epoch uint32

	slots     []taskSlot
	freeSlots []int

	// Event handlers bound once at construction: a method value created at a
	// call site allocates, a stored func(uint64) field does not.
	chunkFn  func(uint64)
	tickFn   func(uint64)
	reduceFn func(uint64)

	jobsDone   metrics.Counter
	jobsFailed metrics.Counter
	taskTimes  *metrics.Latency

	// BeforeSchedule, when set, runs before each admission check — the
	// integration point for this conditional configuration. It receives the
	// candidate worker and the footprint of the task about to be placed, so
	// a controller can reason about the occupancy the admission would
	// create. (MR2820's patch notes: the Master computes the setting and
	// ships it to the workers; here that shipping is the function call.)
	BeforeSchedule func(w *Worker, nextTaskBytes int64)
}

// New builds a cluster with the given initial minspacestart.
func New(s *sim.Simulation, cfg Config, minSpaceStart int64) *Cluster {
	c := &Cluster{sim: s, cfg: cfg, minSpaceStart: minSpaceStart, taskTimes: metrics.NewLatency(512)}
	for i := 0; i < cfg.Workers; i++ {
		c.workers = append(c.workers, &Worker{ID: i, Disk: disksim.NewDisk(cfg.DiskCapacityBytes)})
	}
	c.chunkFn = c.writeChunk
	c.tickFn = c.schedulerTick
	c.reduceFn = c.reduceDone
	return c
}

// SetMinSpaceStart adjusts the knob (bytes).
func (c *Cluster) SetMinSpaceStart(v int64) {
	if v < 0 {
		v = 0
	}
	c.minSpaceStart = v
}

// MinSpaceStart returns the current knob value.
func (c *Cluster) MinSpaceStart() int64 { return c.minSpaceStart }

// SetTaskBytesPerSec changes the task write rate mid-run (fault injection: a
// plant shift — co-tenant I/O contention slowing the local disks). The rate
// is read at task launch, so running tasks keep their original schedule.
func (c *Cluster) SetTaskBytesPerSec(v int64) {
	if v < 1 {
		v = 1
	}
	c.cfg.TaskBytesPerSec = v
}

// Workers returns the worker nodes (for disturbance injection and sensors).
func (c *Cluster) Workers() []*Worker { return c.workers }

// MaxDiskUsed returns the highest disk occupancy across workers — the
// sensor for the hard out-of-disk goal.
func (c *Cluster) MaxDiskUsed() int64 {
	var max int64
	for _, w := range c.workers {
		if u := w.Disk.Used(); u > max {
			max = u
		}
	}
	return max
}

// OOD reports whether any worker disk has rejected a write.
func (c *Cluster) OOD() bool {
	for _, w := range c.workers {
		if w.Disk.OOD() {
			return true
		}
	}
	return false
}

// JobsDone returns the number of successfully completed jobs.
func (c *Cluster) JobsDone() int64 { return c.jobsDone.Value() }

// JobsFailed returns the number of failed jobs.
func (c *Cluster) JobsFailed() int64 { return c.jobsFailed.Value() }

// TaskTimes returns the map-task completion-time tracker: wall time from
// launch to shuffle-off, over the last 512 completed tasks. Admission
// stalls show up here before they show up in whole-job latency, so it is
// the natural per-period sensor for minspacestart controllers.
func (c *Cluster) TaskTimes() *metrics.Latency { return c.taskTimes }

// Busy reports whether a job is currently running.
func (c *Cluster) Busy() bool { return c.current != nil }

// RunJob starts a WordCount job; done receives the result. Only one job
// runs at a time (submitting while busy panics — the experiment drives jobs
// sequentially, as the paper's WordCount phases do).
//
//smartconf:hotpath
func (c *Cluster) RunJob(job workload.WordCountJob, done func(JobResult)) {
	if c.current != nil {
		panic("mapred: job already running")
	}
	c.epoch++
	c.js = jobState{
		job:       job,
		started:   c.sim.Now(),
		done:      done,
		taskBytes: job.IntermediateBytesPerTask(),
		pendingN:  job.MapTasks(),
	}
	c.current = &c.js
	c.schedule()
	c.sim.AfterArg(c.cfg.ScheduleInterval, c.tickFn, uint64(c.epoch))
}

// schedulerTick is the master's periodic admission pass. Like the chunk and
// reduce handlers, it reschedules itself unconditionally (matching the old
// Every loop) and lets the epoch guard retire the one stale tick left
// pending when its job ends.
//
//smartconf:hotpath
func (c *Cluster) schedulerTick(arg uint64) {
	if uint32(arg) != c.epoch || c.current == nil {
		return
	}
	c.schedule()
	c.sim.AfterArg(c.cfg.ScheduleInterval, c.tickFn, arg)
}

func (c *Cluster) schedule() {
	js := c.current
	if js == nil {
		return
	}
	for _, w := range c.workers {
		for w.running < js.job.Parallelism && js.pendingN > 0 {
			if c.BeforeSchedule != nil {
				c.BeforeSchedule(w, js.taskBytes)
			}
			if w.Disk.Free() < c.minSpaceStart {
				break // this worker lacks headroom; try the next
			}
			js.pendingN--
			c.launch(w, js.taskBytes)
		}
	}
	c.maybeFinish()
}

func (c *Cluster) takeSlot() int {
	if n := len(c.freeSlots); n > 0 {
		s := c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		return s
	}
	c.slots = append(c.slots, taskSlot{})
	return len(c.slots) - 1
}

func (c *Cluster) releaseSlot(slot int) {
	c.slots[slot] = taskSlot{}
	c.freeSlots = append(c.freeSlots, slot)
}

// chunkArg packs a slot index and the scheduling epoch into one event
// argument: slot in the high 32 bits, epoch in the low 32.
func chunkArg(slot int, epoch uint32) uint64 {
	return uint64(slot)<<32 | uint64(epoch)
}

func (c *Cluster) launch(w *Worker, bytes int64) {
	w.running++
	w.committed += bytes
	c.js.runningN++
	chunks := c.cfg.WriteChunks
	if chunks < 1 {
		chunks = 1
	}
	chunkBytes := bytes / int64(chunks)
	rem := bytes - chunkBytes*int64(chunks)
	total := time.Duration(float64(bytes) / float64(c.cfg.TaskBytesPerSec) * float64(time.Second))
	step := total / time.Duration(chunks)

	slot := c.takeSlot()
	c.slots[slot] = taskSlot{
		worker:     w,
		bytes:      bytes,
		chunkBytes: chunkBytes,
		rem:        rem,
		chunks:     chunks,
		step:       step, // captured here: SetTaskBytesPerSec affects new launches only
		started:    c.sim.Now(),
	}
	c.sim.AfterArg(step, c.chunkFn, chunkArg(slot, c.epoch))
}

// writeChunk lands one installment of a task's intermediate output.
//
//smartconf:hotpath
func (c *Cluster) writeChunk(arg uint64) {
	if uint32(arg) != c.epoch || c.current == nil {
		return
	}
	slot := int(arg >> 32)
	st := &c.slots[slot]
	w := st.worker
	b := st.chunkBytes
	if st.chunk == st.chunks-1 {
		b += st.rem
	}
	if err := w.Disk.Write(b); err != nil {
		// Out of disk mid-task: the task fails; its partial output is
		// cleaned up, but the job is marked failed.
		w.Disk.Delete(st.written)
		w.committed -= st.bytes - st.written
		w.running--
		c.js.runningN--
		c.js.failedTasks++
		c.releaseSlot(slot)
		c.maybeFinish()
		return
	}
	st.written += b
	w.committed -= b
	st.chunk++
	if st.chunk < st.chunks {
		c.sim.AfterArg(st.step, c.chunkFn, arg)
		return
	}
	// Task complete: the shuffle copies the output off the local disk,
	// releasing the space.
	w.Disk.Delete(st.written)
	w.running--
	c.js.runningN--
	c.js.mapsDone++
	started := st.started
	c.releaseSlot(slot)
	c.taskTimes.Observe(c.sim.Now() - started)
	c.schedule()
}

// reduceDone retires one reducer scheduled by maybeFinish.
//
//smartconf:hotpath
func (c *Cluster) reduceDone(arg uint64) {
	if uint32(arg) != c.epoch || c.current == nil {
		return
	}
	c.js.runningN--
	c.js.reducersUp++
	c.maybeFinish()
}

func (c *Cluster) maybeFinish() {
	js := c.current
	if js == nil || js.pendingN > 0 || js.runningN > 0 {
		return
	}
	// All map tasks are done; run the reduce phase once, if the job has one.
	// Reducers read the shuffled intermediates over the network and write
	// their output to the distributed store, so they occupy task slots but
	// place no admission demand on the local disks.
	if js.job.Reducers > 0 && !js.reducing {
		js.reducing = true
		perReducer := js.job.InputBytes
		if js.job.SpillRatio > 0 {
			perReducer = int64(float64(perReducer) * js.job.SpillRatio)
		}
		perReducer /= int64(js.job.Reducers)
		d := time.Duration(float64(perReducer) / float64(c.cfg.TaskBytesPerSec) * float64(time.Second))
		js.runningN += js.job.Reducers
		for r := 0; r < js.job.Reducers; r++ {
			c.sim.AfterArg(d, c.reduceFn, uint64(c.epoch))
		}
		return
	}
	c.current = nil
	res := JobResult{
		Duration:    c.sim.Now() - js.started,
		Failed:      js.failedTasks > 0,
		FailedTasks: js.failedTasks,
		TotalTasks:  js.job.MapTasks(),
	}
	if res.Failed {
		c.jobsFailed.Inc()
	} else {
		c.jobsDone.Inc()
	}
	if js.done != nil {
		js.done(res)
	}
}

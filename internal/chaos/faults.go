package chaos

import (
	"time"

	"smartconf/internal/memsim"
)

// Plant and workload faults: disturbances applied to substrate resources
// rather than to the control loop.

// HeapShrink permanently reduces the heap's capacity at At (a co-tenant
// claims part of the machine, a cgroup limit is lowered). Then, when set,
// runs immediately after the shrink — the place for the administrator's
// matching SetGoal call; without it the controller keeps targeting a goal
// the physical budget can no longer honor.
type HeapShrink struct {
	At          time.Duration
	Heap        *memsim.Heap
	NewCapacity int64
	Then        func()
}

func (f HeapShrink) Name() string { return "heap-shrink" }

// Span treats the shrink as a step disturbance: the new capacity persists,
// but the controller is expected to re-converge after the step.
func (f HeapShrink) Span(time.Duration) Window { return Window{Start: f.At, End: f.At} }

func (f HeapShrink) Arm(env *Env) {
	env.Sim.At(f.At, func() {
		f.Heap.SetCapacity(f.NewCapacity)
		if f.Then != nil {
			f.Then()
		}
	})
}

// HeapPressure allocates Bytes at Start and frees them at Start+Duration: a
// transient co-tenant spike (for the LLM substrate, a KV-pressure spike from
// an uncounted allocation). If the spike itself does not fit, that is a
// genuine OOM, same as any other allocation failure.
type HeapPressure struct {
	Start, Duration time.Duration
	Heap            *memsim.Heap
	Bytes           int64
}

func (f HeapPressure) Name() string                      { return "heap-pressure" }
func (f HeapPressure) Span(horizon time.Duration) Window { return span(f.Start, f.Duration, horizon) }
func (f HeapPressure) Arm(env *Env) {
	held := false
	env.Sim.At(f.Start, func() {
		held = f.Heap.Alloc(f.Bytes) == nil
	})
	if f.Duration > 0 {
		env.Sim.At(f.Start+f.Duration, func() {
			if held {
				f.Heap.Free(f.Bytes)
			}
		})
	}
}

// PlantShift applies an arbitrary substrate mutation at At: worker-pool
// loss, a service-rate drop, a per-item cost increase — whatever mutator the
// substrate exposes. Label names the shift in plan listings.
type PlantShift struct {
	Label string
	At    time.Duration
	Apply func()
}

func (f PlantShift) Name() string {
	if f.Label != "" {
		return "plant-shift:" + f.Label
	}
	return "plant-shift"
}

// Span treats the shift as a step disturbance, like HeapShrink.
func (f PlantShift) Span(time.Duration) Window { return Window{Start: f.At, End: f.At} }

func (f PlantShift) Arm(env *Env) {
	env.Sim.At(f.At, func() { f.Apply() })
}

// WorkloadSurge multiplies the offered load by Factor inside the window.
// Drivers opt in by scaling their burst or arrival volume by
// Env.SurgeFactor(); substrate code never sees the fault directly.
type WorkloadSurge struct {
	Start, Duration time.Duration
	Factor          float64
}

func (f WorkloadSurge) Name() string                      { return "surge" }
func (f WorkloadSurge) Span(horizon time.Duration) Window { return span(f.Start, f.Duration, horizon) }
func (f WorkloadSurge) Arm(env *Env) {
	env.Sim.At(f.Start, func() { env.surge = f.Factor })
	if f.Duration > 0 {
		env.Sim.At(f.Start+f.Duration, func() { env.surge = 0 })
	}
}

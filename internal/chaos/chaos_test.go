package chaos

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"smartconf/internal/disksim"
	"smartconf/internal/memsim"
	"smartconf/internal/sim"
)

// toyLoop builds a trivial plant (sense returns the virtual time in seconds,
// control doubles it) whose actuation trace makes fault effects visible.
func toyLoop(s *sim.Simulation) (*Loop, *[]float64) {
	applied := &[]float64{}
	l := NewLoop(s, LoopConfig{
		Sense:   func() (float64, float64) { return s.Now().Seconds(), 1 },
		Step:    func(perf, deputy float64) float64 { return 2 * perf },
		Actuate: func(v float64) { *applied = append(*applied, v) },
	})
	return l, applied
}

func tickEvery(s *sim.Simulation, l *Loop, interval, until time.Duration) {
	s.Every(0, interval, func() bool {
		l.Tick()
		return s.Now() < until
	})
}

func TestLoopNoFaultsIsTransparent(t *testing.T) {
	s := sim.New()
	l, applied := toyLoop(s)
	tickEvery(s, l, time.Second, 5*time.Second)
	s.RunUntil(5 * time.Second)
	want := []float64{0, 2, 4, 6, 8, 10}
	if !reflect.DeepEqual(*applied, want) {
		t.Fatalf("applied = %v, want %v", *applied, want)
	}
	if l.Ticks() != 6 || l.Steps() != 6 {
		t.Errorf("ticks=%d steps=%d, want 6/6", l.Ticks(), l.Steps())
	}
}

func TestSensorNoiseActsOnlyInsideWindow(t *testing.T) {
	run := func(seed int64) []float64 {
		s := sim.New()
		l, applied := toyLoop(s)
		plan := &Plan{Name: "noise", Seed: seed, Faults: []Fault{
			SensorNoise{Start: 2 * time.Second, Duration: 2 * time.Second, Sigma: 0.5},
		}}
		plan.Arm(s, l)
		tickEvery(s, l, time.Second, 6*time.Second)
		s.RunUntil(6 * time.Second)
		return *applied
	}
	a := run(1)
	// Outside the window the trace is exact.
	for _, i := range []int{0, 1, 4, 5, 6} {
		if want := 2 * float64(i); a[i] != want {
			t.Errorf("sample %d = %v outside noise window, want %v", i, a[i], want)
		}
	}
	// Inside the window, noise must have perturbed at least one sample.
	if a[2] == 4 && a[3] == 6 {
		t.Error("noise window left samples exact")
	}
	// Replayable: same seed, same trace; different seed, different noise.
	if b := run(1); !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	if c := run(2); reflect.DeepEqual(a[2:4], c[2:4]) {
		t.Errorf("different seeds produced identical noise: %v", a[2:4])
	}
}

func TestSensorDropoutHoldsKnob(t *testing.T) {
	s := sim.New()
	l, applied := toyLoop(s)
	plan := &Plan{Name: "drop", Seed: 3, Faults: []Fault{
		SensorDropout{Start: 2 * time.Second, Duration: 3 * time.Second, Prob: 1},
	}}
	plan.Arm(s, l)
	tickEvery(s, l, time.Second, 7*time.Second)
	s.RunUntil(7 * time.Second)
	// Ticks at t=2,3,4 are lost entirely: nothing actuated during the outage.
	want := []float64{0, 2, 10, 12, 14}
	if !reflect.DeepEqual(*applied, want) {
		t.Fatalf("applied = %v, want %v", *applied, want)
	}
}

func TestSensorStalenessDelaysDelivery(t *testing.T) {
	s := sim.New()
	var at []time.Duration
	l := NewLoop(s, LoopConfig{
		Sense:   func() (float64, float64) { return 1, 0 },
		Step:    func(perf, _ float64) float64 { return perf },
		Actuate: func(float64) { at = append(at, s.Now()) },
	})
	plan := &Plan{Name: "stale", Seed: 0, Faults: []Fault{
		SensorStaleness{Start: 0, Duration: 10 * time.Second, Delay: 1500 * time.Millisecond},
	}}
	plan.Arm(s, l)
	tickEvery(s, l, 2*time.Second, 4*time.Second)
	s.RunUntil(10 * time.Second)
	want := []time.Duration{1500 * time.Millisecond, 3500 * time.Millisecond, 5500 * time.Millisecond}
	if !reflect.DeepEqual(at, want) {
		t.Fatalf("delivery times = %v, want %v", at, want)
	}
}

func TestActuationDelayAndClamp(t *testing.T) {
	s := sim.New()
	l, applied := toyLoop(s)
	plan := &Plan{Name: "act", Seed: 0, Faults: []Fault{
		ActuationDelay{Start: 0, Duration: 2 * time.Second, Delay: 500 * time.Millisecond},
		ActuationClamp{Start: 3 * time.Second, Duration: 2 * time.Second, Min: 0, Max: 7},
	}}
	plan.Arm(s, l)
	tickEvery(s, l, time.Second, 6*time.Second)
	s.RunUntil(7 * time.Second)
	// t=0,1 delayed but values unchanged; t=4's value 8 clamps to 7 (t=3's
	// value 6 is inside the clamp range); t=2,5,6 exact.
	want := []float64{0, 2, 4, 6, 7, 10, 12}
	if !reflect.DeepEqual(*applied, want) {
		t.Fatalf("applied = %v, want %v", *applied, want)
	}
}

// TestLoopTickAllocatesNothing: a control tick allocates nothing with no
// fault armed, nor when an actuation delay defers its knob write, so a run's
// allocations do not grow with the number of ticks.
func TestLoopTickAllocatesNothing(t *testing.T) {
	s := sim.New()
	l := NewLoop(s, LoopConfig{
		Sense:   func() (float64, float64) { return 1, 1 },
		Step:    func(perf, _ float64) float64 { return 2 * perf },
		Actuate: func(float64) {},
	})
	if n := testing.AllocsPerRun(100, l.Tick); n != 0 {
		t.Errorf("an unarmed tick allocates %.0f objects, want 0", n)
	}
	l.actDelay = time.Millisecond
	delayed := func() { l.Tick(); s.Run() }
	if n := testing.AllocsPerRun(100, delayed); n != 0 {
		t.Errorf("a tick with a delayed actuation allocates %.0f objects, want 0", n)
	}
	if l.Steps() != l.Ticks() {
		t.Errorf("steps=%d ticks=%d: every tick must reach the controller", l.Steps(), l.Ticks())
	}
}

func TestControllerStallResumesWithStateIntact(t *testing.T) {
	s := sim.New()
	var sum float64
	l := NewLoop(s, LoopConfig{
		Sense:   func() (float64, float64) { return 1, 0 },
		Step:    func(perf, _ float64) float64 { sum += perf; return sum },
		Actuate: func(float64) {},
	})
	plan := &Plan{Name: "stall", Seed: 0, Faults: []Fault{
		ControllerStall{Start: 2 * time.Second, Duration: 3 * time.Second},
	}}
	plan.Arm(s, l)
	tickEvery(s, l, time.Second, 8*time.Second)
	s.RunUntil(8 * time.Second)
	// 9 ticks, 3 of them (t=2,3,4) swallowed by the stall; state accumulates
	// across the gap.
	if l.Ticks() != 9 || l.Steps() != 6 {
		t.Fatalf("ticks=%d steps=%d, want 9/6", l.Ticks(), l.Steps())
	}
	if sum != 6 {
		t.Errorf("integrator sum = %v, want 6 (state preserved across stall)", sum)
	}
}

func TestControllerCrashRestartRebuilds(t *testing.T) {
	s := sim.New()
	gen := 0
	var lastGen int
	mkStep := func(g int) func(float64, float64) float64 {
		return func(perf, _ float64) float64 { lastGen = g; return perf }
	}
	l := NewLoop(s, LoopConfig{
		Sense:   func() (float64, float64) { return 1, 0 },
		Step:    mkStep(0),
		Actuate: func(float64) {},
		Rebuild: func() func(float64, float64) float64 {
			gen++
			return mkStep(gen)
		},
	})
	plan := &Plan{Name: "crash", Seed: 0, Faults: []Fault{
		ControllerCrash{At: 2 * time.Second, RestartAfter: 3 * time.Second},
	}}
	plan.Arm(s, l)
	tickEvery(s, l, time.Second, 8*time.Second)
	s.RunUntil(8 * time.Second)
	if l.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", l.Restarts())
	}
	if gen != 1 || lastGen != 1 {
		t.Errorf("rebuild generation = %d, last step generation = %d, want 1/1", gen, lastGen)
	}
	if l.Down() {
		t.Error("loop still down after restart")
	}
}

func TestHeapFaults(t *testing.T) {
	s := sim.New()
	heap := memsim.NewHeap(100)
	if err := heap.Alloc(40); err != nil {
		t.Fatal(err)
	}
	thenRan := false
	plan := &Plan{Name: "heap", Seed: 0, Faults: []Fault{
		HeapPressure{Start: 1 * time.Second, Duration: 2 * time.Second, Heap: heap, Bytes: 30},
		HeapShrink{At: 5 * time.Second, Heap: heap, NewCapacity: 60, Then: func() { thenRan = true }},
	}}
	plan.Arm(s, nil)
	var used []int64
	s.Every(500*time.Millisecond, time.Second, func() bool {
		used = append(used, heap.Used())
		return s.Now() < 6*time.Second
	})
	s.RunUntil(6 * time.Second)
	// 40 before the spike, 70 inside it, back to 40 after.
	want := []int64{40, 70, 70, 40, 40, 40}
	if !reflect.DeepEqual(used, want) {
		t.Fatalf("used = %v, want %v", used, want)
	}
	if !thenRan {
		t.Error("HeapShrink.Then did not run")
	}
	if got := heap.Capacity(); got != 60 {
		t.Errorf("capacity = %d after shrink, want 60", got)
	}
	if heap.OOM() {
		t.Error("unexpected OOM")
	}
}

func TestHeapPressureThatDoesNotFitIsAnOOM(t *testing.T) {
	s := sim.New()
	heap := memsim.NewHeap(100)
	if err := heap.Alloc(90); err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Name: "oom", Seed: 0, Faults: []Fault{
		HeapPressure{Start: time.Second, Duration: time.Second, Heap: heap, Bytes: 50},
	}}
	plan.Arm(s, nil)
	s.RunUntil(5 * time.Second)
	if !heap.OOM() {
		t.Fatal("a spike beyond capacity must register as OOM")
	}
}

func TestDiskPressureTransient(t *testing.T) {
	s := sim.New()
	disk := disksim.NewDisk(1000)
	plan := &Plan{Name: "disk", Seed: 0, Faults: []Fault{
		DiskPressure{Start: time.Second, Duration: 2 * time.Second, Disk: disk, Bytes: 400},
	}}
	plan.Arm(s, nil)
	s.RunUntil(2 * time.Second)
	if got := disk.Used(); got != 400 {
		t.Fatalf("used = %d inside the window, want 400", got)
	}
	s.RunUntil(5 * time.Second)
	if got := disk.Used(); got != 0 {
		t.Fatalf("used = %d after the window, want 0", got)
	}
	if disk.OOD() {
		t.Error("unexpected OOD")
	}
}

func TestPlantShiftAndSurge(t *testing.T) {
	s := sim.New()
	rate := 100
	plan := &Plan{Name: "shift", Seed: 0, Faults: []Fault{
		PlantShift{Label: "rate-drop", At: 2 * time.Second, Apply: func() { rate = 50 }},
		WorkloadSurge{Start: 3 * time.Second, Duration: 2 * time.Second, Factor: 4},
	}}
	env := plan.Arm(s, nil)
	var surges []float64
	s.Every(0, time.Second, func() bool {
		surges = append(surges, env.SurgeFactor())
		return s.Now() < 6*time.Second
	})
	s.RunUntil(6 * time.Second)
	if rate != 50 {
		t.Errorf("plant shift did not apply: rate = %d", rate)
	}
	want := []float64{1, 1, 1, 4, 4, 1, 1}
	if !reflect.DeepEqual(surges, want) {
		t.Fatalf("surge factors = %v, want %v", surges, want)
	}
	if got := plan.Faults[0].Name(); got != "plant-shift:rate-drop" {
		t.Errorf("Name() = %q", got)
	}
}

// A driver shared between chaos cells and plain runs queries the surge of
// a nil Env on the plain runs: it must read as "no surge".
func TestNilEnvSurgeFactorIsOne(t *testing.T) {
	if got := (*Env)(nil).SurgeFactor(); got != 1 {
		t.Fatalf("nil Env SurgeFactor() = %v, want 1", got)
	}
}

func TestPlanWindowsAndString(t *testing.T) {
	p := &Plan{Name: "mix", Seed: 7, Faults: []Fault{
		SensorNoise{Start: 10 * time.Second, Duration: 20 * time.Second, Sigma: 0.1},
		ControllerCrash{At: 40 * time.Second, RestartAfter: 5 * time.Second},
		HeapShrink{At: 50 * time.Second},
		SensorDropout{Start: 60 * time.Second, Prob: 1}, // open-ended
	}}
	got := p.Windows(100 * time.Second)
	want := []Window{
		{10 * time.Second, 30 * time.Second},
		{40 * time.Second, 45 * time.Second},
		{50 * time.Second, 50 * time.Second},
		{60 * time.Second, 100 * time.Second},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Windows = %v, want %v", got, want)
	}
	str := p.String()
	wantStr := "mix(seed=7: sensor-noise,crash-restart,heap-shrink,sensor-dropout)"
	if str != wantStr {
		t.Errorf("String() = %q, want %q", str, wantStr)
	}
}

// TestFullPlanReplayIsByteIdentical drives a loop through a plan combining
// every loop-fault family and asserts two runs with the same seed produce
// the same actuation trace down to the bit.
func TestFullPlanReplayIsByteIdentical(t *testing.T) {
	run := func(seed int64) string {
		s := sim.New()
		l, applied := toyLoop(s)
		plan := &Plan{Name: "full", Seed: seed, Faults: []Fault{
			SensorNoise{Start: 1 * time.Second, Duration: 4 * time.Second, Sigma: 0.2},
			SensorDropout{Start: 6 * time.Second, Duration: 3 * time.Second, Prob: 0.5},
			SensorStaleness{Start: 10 * time.Second, Duration: 3 * time.Second, Delay: 300 * time.Millisecond},
			ActuationDelay{Start: 14 * time.Second, Duration: 2 * time.Second, Delay: 200 * time.Millisecond},
			ControllerStall{Start: 17 * time.Second, Duration: 2 * time.Second},
			ControllerCrash{At: 20 * time.Second, RestartAfter: 2 * time.Second},
		}}
		plan.Arm(s, l)
		tickEvery(s, l, 500*time.Millisecond, 25*time.Second)
		s.RunUntil(26 * time.Second)
		out := ""
		for _, v := range *applied {
			out += fmt.Sprintf("%.17g;", v)
		}
		return out
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatal("same (plan, seed) produced different actuation traces")
	}
	if c := run(43); c == a {
		t.Error("different seeds produced identical traces despite probabilistic faults")
	}
}

func TestNegativeNoiseClampsAtZero(t *testing.T) {
	s := sim.New()
	var got []float64
	l := NewLoop(s, LoopConfig{
		Sense:   func() (float64, float64) { return 1, 0 },
		Step:    func(perf, _ float64) float64 { got = append(got, perf); return perf },
		Actuate: func(float64) {},
	})
	plan := &Plan{Name: "neg", Seed: 11, Faults: []Fault{
		SensorNoise{Start: 0, Sigma: 50}, // huge sigma: negative draws certain
	}}
	plan.Arm(s, l)
	tickEvery(s, l, time.Second, 50*time.Second)
	s.RunUntil(50 * time.Second)
	for i, v := range got {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("sample %d = %v; noisy measurements must stay ≥ 0", i, v)
		}
	}
}

package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"smartconf/internal/declog"
)

// plantSim is a first-order plant s = α·c + base + disturbance used to
// close the loop in tests.
type plantSim struct {
	alpha float64
	base  float64
}

func (p plantSim) measure(c float64) float64 { return p.alpha*c + p.base }

func mustController(t *testing.T, model Model, pole, lambda float64, goal Goal, opts Options) *Controller {
	t.Helper()
	ctrl, err := NewController(model, pole, lambda, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestControllerConvergesToGoal(t *testing.T) {
	plant := plantSim{alpha: 2, base: 100}
	model := Model{Alpha: 2, Intercept: 100}
	goal := Goal{Metric: "mem", Target: 500}
	ctrl := mustController(t, model, 0.5, 0, goal, Options{Initial: 0, Max: 1e6})

	c := ctrl.Conf()
	for i := 0; i < 100; i++ {
		c = ctrl.Update(plant.measure(c))
	}
	// Steady state: s = goal ⇒ c = (500-100)/2 = 200.
	if math.Abs(c-200) > 1e-6 {
		t.Errorf("converged conf = %v, want 200", c)
	}
	if math.Abs(plant.measure(c)-500) > 1e-6 {
		t.Errorf("converged perf = %v, want 500", plant.measure(c))
	}
}

func TestControllerNegativeSlope(t *testing.T) {
	// HB2149-style plant: block time = 20·(1-lowerLimit) ⇒ s = -20·c + 20.
	plant := plantSim{alpha: -20, base: 20}
	model := Model{Alpha: -20, Intercept: 20}
	goal := Goal{Metric: "block", Target: 5}
	ctrl := mustController(t, model, 0.3, 0, goal, Options{Initial: 0.1, Max: 1})

	c := ctrl.Conf()
	for i := 0; i < 200; i++ {
		c = ctrl.Update(plant.measure(c))
	}
	// s = 5 ⇒ c = (5-20)/-20 = 0.75.
	if math.Abs(c-0.75) > 1e-6 {
		t.Errorf("converged conf = %v, want 0.75", c)
	}
}

func TestControllerDeadbeatOneStep(t *testing.T) {
	// pole 0 with an exact model reaches the goal in a single step.
	plant := plantSim{alpha: 3, base: 0}
	ctrl := mustController(t, Model{Alpha: 3}, 0, 0, Goal{Target: 300}, Options{Initial: 10, Max: 1e6})
	c := ctrl.Update(plant.measure(ctrl.Conf()))
	if math.Abs(plant.measure(c)-300) > 1e-9 {
		t.Errorf("one-step perf = %v, want 300", plant.measure(c))
	}
}

func TestControllerHardGoalVirtualTargetAndTwoPoles(t *testing.T) {
	lambda := 0.1
	goal := Goal{Metric: "mem", Target: 495, Hard: true}
	ctrl := mustController(t, Model{Alpha: 1}, 0.9, lambda, goal, Options{Initial: 0, Min: -1e9, Max: 1e6})

	wantVT := (1 - lambda) * 495
	if math.Abs(ctrl.VirtualTarget()-wantVT) > 1e-9 {
		t.Fatalf("virtual target = %v, want %v", ctrl.VirtualTarget(), wantVT)
	}

	log := declog.New(4)
	ctrl.AttachLog(log, "mem")

	// Safe region: measurement below virtual goal ⇒ regular pole.
	underLog(log, func() { ctrl.Update(wantVT - 100) })
	if p := lastPole(log); p != 0.9 {
		t.Errorf("safe-region pole = %v, want 0.9", p)
	}

	// Danger region: beyond the virtual goal ⇒ pole 0 (max aggression).
	before := ctrl.Conf()
	underLog(log, func() { ctrl.Update(wantVT + 50) })
	if p := lastPole(log); p != 0 {
		t.Errorf("danger-region pole = %v, want 0", p)
	}
	// And the knob must move down by the full error (1-0)/α·e = -50.
	if math.Abs(ctrl.Conf()-(before-50)) > 1e-9 {
		t.Errorf("danger-region step: conf %v → %v, want drop of 50", before, ctrl.Conf())
	}
}

func TestControllerSoftGoalKeepsSinglePole(t *testing.T) {
	ctrl := mustController(t, Model{Alpha: 1}, 0.8, 0.5, Goal{Target: 100, Hard: false}, Options{Max: 1e6})
	if ctrl.VirtualTarget() != 100 {
		t.Errorf("soft goal virtual target = %v, want goal itself", ctrl.VirtualTarget())
	}
	log := declog.New(4)
	ctrl.AttachLog(log, "knob")
	underLog(log, func() { ctrl.Update(150) }) // above goal
	if p := lastPole(log); p != 0.8 {
		t.Errorf("soft goal pole = %v, want regular 0.8", p)
	}
}

func TestControllerLowerBoundGoal(t *testing.T) {
	// Throughput-style goal: stay ABOVE 100; plant gains with conf.
	plant := plantSim{alpha: 5, base: 0}
	goal := Goal{Metric: "tput", Target: 100, Bound: LowerBound, Hard: true}
	ctrl := mustController(t, Model{Alpha: 5}, 0.5, 0.1, goal, Options{Initial: 50, Max: 1e6})
	// Virtual target above the goal.
	if ctrl.VirtualTarget() <= 100 {
		t.Fatalf("lower-bound virtual target = %v, want > 100", ctrl.VirtualTarget())
	}
	// Below the virtual goal = danger for lower bounds ⇒ pole 0.
	log := declog.New(4)
	ctrl.AttachLog(log, "tput")
	underLog(log, func() { ctrl.Update(50) })
	if p := lastPole(log); p != 0 {
		t.Errorf("danger pole = %v, want 0", p)
	}
	c := ctrl.Conf()
	for i := 0; i < 100; i++ {
		c = ctrl.Update(plant.measure(c))
	}
	if plant.measure(c) < 100 {
		t.Errorf("steady state %v below lower bound 100", plant.measure(c))
	}
}

func TestControllerInteractionFactorSplitsError(t *testing.T) {
	goal := Goal{Target: 100, Hard: true, SuperHard: true}
	solo := mustController(t, Model{Alpha: 1}, 0, 0, goal, Options{Initial: 0, Max: 1e6})
	duo := mustController(t, Model{Alpha: 1}, 0, 0, goal, Options{Initial: 0, Max: 1e6, Interaction: 2})

	solo.Update(40)
	duo.Update(40)
	// e = 60; solo moves 60, duo moves 30.
	if math.Abs(solo.Conf()-60) > 1e-9 {
		t.Errorf("solo conf = %v, want 60", solo.Conf())
	}
	if math.Abs(duo.Conf()-30) > 1e-9 {
		t.Errorf("duo conf = %v, want 30", duo.Conf())
	}

	duo.SetInteraction(3)
	duo.SetConf(0)
	duo.Update(40)
	if math.Abs(duo.Conf()-20) > 1e-9 {
		t.Errorf("N=3 conf = %v, want 20", duo.Conf())
	}
	duo.SetInteraction(0) // clamped to 1
	duo.SetConf(0)
	duo.Update(40)
	if math.Abs(duo.Conf()-60) > 1e-9 {
		t.Errorf("N clamped to 1: conf = %v, want 60", duo.Conf())
	}
}

func TestControllerClampingAndSaturation(t *testing.T) {
	ctrl := mustController(t, Model{Alpha: 1}, 0, 0, Goal{Target: 1000}, Options{Min: 0, Max: 50})
	for i := 0; i < 5; i++ {
		ctrl.Update(0) // wants conf 1000, clamped at 50
	}
	if ctrl.Conf() != 50 {
		t.Errorf("conf = %v, want pinned at 50", ctrl.Conf())
	}
	if ctrl.SaturatedFor() != 5 {
		t.Errorf("SaturatedFor = %d, want 5", ctrl.SaturatedFor())
	}
	// Achievable goal resets the saturation counter.
	ctrl.SetGoal(40)
	ctrl.Update(45)
	if ctrl.SaturatedFor() != 0 {
		t.Errorf("SaturatedFor after feasible update = %d, want 0", ctrl.SaturatedFor())
	}
}

func TestControllerSetGoalRecomputesVirtualGoal(t *testing.T) {
	ctrl := mustController(t, Model{Alpha: 1}, 0.5, 0.2, Goal{Target: 1000, Hard: true}, Options{Max: 1e6})
	if math.Abs(ctrl.VirtualTarget()-800) > 1e-9 {
		t.Fatalf("virtual target = %v, want 800", ctrl.VirtualTarget())
	}
	ctrl.SetGoal(500)
	if math.Abs(ctrl.VirtualTarget()-400) > 1e-9 {
		t.Errorf("after SetGoal virtual target = %v, want 400", ctrl.VirtualTarget())
	}
	if ctrl.Goal().Target != 500 {
		t.Errorf("goal = %v, want 500", ctrl.Goal().Target)
	}
}

func TestControllerConstructorValidation(t *testing.T) {
	if _, err := NewController(Model{Alpha: 0}, 0, 0, Goal{}, Options{}); err == nil {
		t.Error("expected error for zero α")
	}
	if _, err := NewController(Model{Alpha: math.NaN()}, 0, 0, Goal{}, Options{}); err == nil {
		t.Error("expected error for NaN α")
	}
	if _, err := NewController(Model{Alpha: 1}, 1.0, 0, Goal{}, Options{}); err == nil {
		t.Error("expected error for pole ≥ 1")
	}
	if _, err := NewController(Model{Alpha: 1}, -0.1, 0, Goal{}, Options{}); err == nil {
		t.Error("expected error for negative pole")
	}
	if _, err := NewController(Model{Alpha: 1}, 0, 0, Goal{}, Options{Min: 10, Max: 5}); err == nil {
		t.Error("expected error for inverted bounds")
	}
}

func TestSynthesizeEndToEnd(t *testing.T) {
	// Profile a noisy plant, synthesize, and close the loop on the same plant.
	rng := rand.New(rand.NewSource(7))
	alpha, base := 3.0, 50.0
	noisy := func(c float64) float64 {
		return alpha*c + base + rng.NormFloat64()*5
	}
	plan := DefaultPlan(10, 100, 4)
	profile, err := plan.Run(func(s float64) (float64, error) { return noisy(s), nil })
	if err != nil {
		t.Fatal(err)
	}
	goal := Goal{Metric: "mem", Target: 400, Hard: true}
	ctrl, err := Synthesize(profile, goal, Options{Initial: 0, Max: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if p := ctrl.Pole(); p < 0 || p >= 1 {
		t.Fatalf("synthesized pole %v outside [0,1)", p)
	}
	c := ctrl.Conf()
	violations := 0
	for i := 0; i < 500; i++ {
		s := noisy(c)
		if s > goal.Target {
			violations++
		}
		c = ctrl.Update(s)
	}
	// The virtual goal absorbs the noise; demand a high satisfaction rate.
	if violations > 25 {
		t.Errorf("constraint violated %d/500 steps", violations)
	}
	// And the controller should not be hiding at conf=0: it must exploit the
	// slack below the goal.
	if ctrl.Conf() < 50 {
		t.Errorf("converged conf %v is needlessly conservative", ctrl.Conf())
	}
}

func TestSynthesizeRejectsEmptyProfile(t *testing.T) {
	if _, err := Synthesize(Profile{}, Goal{}, Options{}); err == nil {
		t.Error("expected error for empty profile")
	}
}

// Property (§5.6 stability): for random stable plants and any pole in [0,1),
// the closed loop converges to the goal without oscillating away from it.
func TestControllerConvergenceProperty(t *testing.T) {
	f := func(alphaSeed, poleSeed, goalSeed, baseSeed uint16) bool {
		alpha := 0.1 + float64(alphaSeed%500)/10 // (0.1, 50.1)
		if alphaSeed%2 == 0 {
			alpha = -alpha // negative-slope plants must work too
		}
		pole := float64(poleSeed%90) / 100 // [0, 0.9)
		base := float64(baseSeed % 100)
		goalTarget := base + 10 + float64(goalSeed%1000)
		plant := plantSim{alpha: alpha, base: base}

		min, max := -1e9, 1e9
		ctrl, err := NewController(Model{Alpha: alpha, Intercept: base}, pole, 0,
			Goal{Target: goalTarget}, Options{Min: min, Max: max})
		if err != nil {
			return false
		}
		c := ctrl.Conf()
		for i := 0; i < 400; i++ {
			c = ctrl.Update(plant.measure(c))
		}
		return math.Abs(plant.measure(c)-goalTarget) < 1e-3*(1+math.Abs(goalTarget))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property (§5.6 overshoot): with an exact model and no external disturbance,
// a hard-goal controller starting in the safe region never pushes the plant
// beyond the real goal (the virtual goal leaves margin; pole ∈ [0,1) avoids
// overshoot by design).
func TestControllerNoOvershootProperty(t *testing.T) {
	f := func(alphaSeed, poleSeed, lambdaSeed uint16) bool {
		alpha := 0.1 + float64(alphaSeed%200)/10
		pole := float64(poleSeed%95) / 100
		lambda := float64(lambdaSeed%30) / 100 // [0, 0.3)
		plant := plantSim{alpha: alpha}
		goalTarget := 1000.0
		ctrl, err := NewController(Model{Alpha: alpha}, pole, lambda,
			Goal{Target: goalTarget, Hard: true}, Options{Initial: 0, Max: 1e12})
		if err != nil {
			return false
		}
		c := ctrl.Conf()
		for i := 0; i < 300; i++ {
			s := plant.measure(c)
			if s > goalTarget+1e-9 {
				return false // overshot the hard constraint
			}
			c = ctrl.Update(s)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: after a sudden disturbance pushes the measurement past the
// virtual goal, the danger-region pole recovers the plant into the safe
// region within one step (exact model), mirroring Fig. 7's argument.
func TestControllerRecoveryProperty(t *testing.T) {
	f := func(disturbSeed uint16) bool {
		alpha := 2.0
		goalTarget := 500.0
		lambda := 0.1
		ctrl, err := NewController(Model{Alpha: alpha}, 0.9, lambda,
			Goal{Target: goalTarget, Hard: true}, Options{Initial: 0, Max: 1e9})
		if err != nil {
			return false
		}
		plant := plantSim{alpha: alpha}
		c := ctrl.Conf()
		for i := 0; i < 50; i++ {
			c = ctrl.Update(plant.measure(c))
		}
		// Sudden disturbance: memory spikes past the virtual goal.
		disturb := float64(disturbSeed%400) + 1
		spiked := plant.measure(c) + disturb
		c = ctrl.Update(spiked)
		// Next measurement with the disturbance persisting must be back at or
		// below the virtual goal (deadbeat step sized to the full error).
		after := plant.measure(c) + disturb
		return after <= ctrl.VirtualTarget()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

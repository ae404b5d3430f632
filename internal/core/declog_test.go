package core

import (
	"math"
	"testing"

	"smartconf/internal/declog"
)

func TestClassifyClamp(t *testing.T) {
	cases := []struct {
		name          string
		raw, min, max float64
		want          declog.ClampReason
	}{
		{"inside range", 50, 0, 100, declog.ClampNone},
		{"at min", 0, 0, 100, declog.ClampNone},
		{"at max", 100, 0, 100, declog.ClampNone},
		{"below min", -1, 0, 100, declog.ClampMin},
		{"above max", 100.5, 0, 100, declog.ClampMax},
		{"unbounded above", 1e300, 0, math.Inf(1), declog.ClampNone},
		{"+inf raw under finite max", math.Inf(1), 0, 100, declog.ClampMax},
		{"-inf raw over finite min", math.Inf(-1), 0, 100, declog.ClampMin},
		{"+inf raw with +inf max", math.Inf(1), 0, math.Inf(1), declog.ClampNone},
		{"nan raw", math.NaN(), 0, 100, declog.ClampNonFinite},
		{"nan beats bounds", math.NaN(), math.Inf(-1), math.Inf(1), declog.ClampNonFinite},
		{"degenerate range below", 5, 10, 10, declog.ClampMin},
		{"degenerate range above", 15, 10, 10, declog.ClampMax},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ClassifyClamp(tc.raw, tc.min, tc.max); got != tc.want {
				t.Errorf("ClassifyClamp(%v, %v, %v) = %v, want %v", tc.raw, tc.min, tc.max, got, tc.want)
			}
		})
	}
}

// underLog runs f inside l's critical section, as a logged controller's
// Update and SetGoal require.
func underLog(l *declog.Log, f func()) {
	mu := declog.Mutex(l)
	mu.Lock()
	defer mu.Unlock()
	f()
}

// lastPole is the pole in l's most recent record: the one the logged
// controller's last Update used.
func lastPole(l *declog.Log) float64 {
	recs := l.Snapshot()
	return recs[len(recs)-1].Pole
}

// Every Update lands one record: 1-based period, the sensed value, the error,
// the pole actually used, the raw Eq. 2 output, and the clamp classification.
func TestControllerAppendsDecisionRecords(t *testing.T) {
	log := declog.New(16)
	ctrl := mustController(t, Model{Alpha: 1}, 0.5, 0, Goal{Target: 100}, Options{Initial: 0, Min: 0, Max: 40})
	ctrl.AttachLog(log, "knob")

	underLog(log, func() {
		ctrl.Update(20) // error 80, raw 0+0.5*80=40: exactly at Max, no clamp
		ctrl.Update(20) // raw 40+40=80 > Max: clamped to 40
	})
	recs := log.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	r0, r1 := recs[0], recs[1]
	if r0.Period != 1 || r1.Period != 2 {
		t.Errorf("periods %d,%d; want 1,2", r0.Period, r1.Period)
	}
	if r0.Sensed != 20 || r0.Err != 80 || r0.Pole != 0.5 {
		t.Errorf("record 0 = %+v; want sensed 20, err 80, pole 0.5", r0)
	}
	if r0.Raw != 40 || r0.Applied != 40 || r0.Clamp != declog.ClampNone {
		t.Errorf("record 0 = %+v; want raw 40 applied 40 clamp none", r0)
	}
	if r1.Raw != 80 || r1.Applied != 40 || r1.Clamp != declog.ClampMax {
		t.Errorf("record 1 = %+v; want raw 80 applied 40 clamp max", r1)
	}
	if names := log.Sources(); len(names) != 1 || names[0] != "knob" {
		t.Errorf("sources = %v, want [knob]", log.Sources())
	}
}

// The danger-region pole switch must be visible in the log: the record holds
// the pole the update actually used, not the configured one.
func TestLoggedPoleReflectsTwoPoleSwitch(t *testing.T) {
	log := declog.New(8)
	goal := Goal{Target: 100, Hard: true}
	ctrl := mustController(t, Model{Alpha: -1}, 0.9, 0.2, goal, Options{Initial: 50, Max: 1e6})
	ctrl.AttachLog(log, "knob")
	underLog(log, func() {
		ctrl.Update(ctrl.VirtualTarget() - 1) // safe region
		ctrl.Update(150)                      // past the virtual goal: pole 0
	})
	recs := log.Snapshot()
	if recs[0].Pole != 0.9 {
		t.Errorf("safe-region record pole %v, want 0.9", recs[0].Pole)
	}
	if recs[1].Pole != 0 {
		t.Errorf("danger-region record pole %v, want 0", recs[1].Pole)
	}
}

func TestSetGoalBumpsEpochOnlyWhenLogged(t *testing.T) {
	unlogged := mustController(t, Model{Alpha: 1}, 0, 0, Goal{Target: 100}, Options{Max: 1e6})
	unlogged.SetGoal(200) // no log attached: must not panic

	log := declog.New(8)
	ctrl := mustController(t, Model{Alpha: 1}, 0, 0, Goal{Target: 100}, Options{Max: 1e6})
	ctrl.AttachLog(log, "knob")
	underLog(log, func() {
		ctrl.Update(10)
		ctrl.SetGoal(200)
		ctrl.Update(10)
	})
	recs := log.Snapshot()
	if log.Epoch() != 1 {
		t.Fatalf("epoch = %d after SetGoal, want 1", log.Epoch())
	}
	if recs[0].Epoch != 0 || recs[1].Epoch != 1 {
		t.Errorf("record epochs %d,%d; want 0,1", recs[0].Epoch, recs[1].Epoch)
	}
}

// A pole perturbation must only take effect from its start period, and a zero
// perturbation must leave the trajectory untouched.
func TestSetPerturbPinsPoleFromPeriod(t *testing.T) {
	mk := func() *Controller {
		return mustController(t, Model{Alpha: 1}, 0.5, 0, Goal{Target: 100}, Options{Initial: 0, Max: 1e6})
	}
	plain := mk()
	perturbed := mk()
	perturbed.SetPerturb(declog.Perturb{SetPole: true, Pole: 0.9, FromPeriod: 3})
	log := declog.New(8)
	perturbed.AttachLog(log, "knob")
	var a, b []float64
	for i := 0; i < 5; i++ {
		a = append(a, plain.Update(50))
		underLog(log, func() { b = append(b, perturbed.Update(50)) })
	}
	if a[0] != b[0] || a[1] != b[1] {
		t.Errorf("pre-FromPeriod trajectories diverge: %v vs %v", a[:2], b[:2])
	}
	if a[2] == b[2] {
		t.Errorf("perturbation had no effect at period 3: both %v", a[2])
	}
	if p := lastPole(log); p != 0.9 {
		t.Errorf("last recorded pole = %v, want pinned 0.9", p)
	}

	disarmed := mk()
	disarmed.SetPerturb(declog.Perturb{SetPole: true, Pole: 0.9})
	disarmed.SetPerturb(declog.Perturb{}) // zero perturbation disarms
	for i, want := range a {
		if got := disarmed.Update(50); got != want {
			t.Fatalf("disarmed controller diverges at period %d: %v != %v", i+1, got, want)
		}
	}
}

func TestSetPerturbMovesClampBounds(t *testing.T) {
	ctrl := mustController(t, Model{Alpha: 1}, 0, 0, Goal{Target: 1000}, Options{Initial: 0, Min: 0, Max: 50})
	ctrl.SetPerturb(declog.Perturb{SetMax: true, Max: 200})
	if got := ctrl.Update(0); got != 200 {
		t.Errorf("with perturbed max 200, Update = %v", got)
	}

	// Inverted perturbed bounds collapse to the min rather than oscillating.
	ctrl2 := mustController(t, Model{Alpha: 1}, 0, 0, Goal{Target: 1000}, Options{Initial: 0, Min: 0, Max: 50})
	ctrl2.SetPerturb(declog.Perturb{SetMin: true, Min: 30, SetMax: true, Max: 10})
	if got := ctrl2.Update(0); got != 30 {
		t.Errorf("inverted perturbed bounds: Update = %v, want 30", got)
	}

	// NaN perturbation fields are ignored, not applied.
	ctrl3 := mustController(t, Model{Alpha: 1}, 0, 0, Goal{Target: 1000}, Options{Initial: 0, Min: 0, Max: 50})
	ctrl3.SetPerturb(declog.Perturb{SetPole: true, Pole: math.NaN(), SetMax: true, Max: math.NaN()})
	if got := ctrl3.Update(0); got != 50 {
		t.Errorf("NaN perturbation fields leaked: Update = %v, want 50", got)
	}
}

// Perturbed clamp bounds drive the same saturation counter the alert reads.
func TestPerturbedBoundsFeedSaturation(t *testing.T) {
	ctrl := mustController(t, Model{Alpha: 1}, 0, 0, Goal{Target: 1000}, Options{Initial: 0, Min: 0, Max: 1e6})
	ctrl.SetPerturb(declog.Perturb{SetMax: true, Max: 10})
	ctrl.Update(0)
	ctrl.Update(0)
	if got := ctrl.SaturatedFor(); got != 2 {
		t.Errorf("SaturatedFor = %d under perturbed max, want 2", got)
	}
}

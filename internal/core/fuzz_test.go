package core

import (
	"math"
	"testing"

	"smartconf/internal/declog"
)

// FuzzSynthesize drives controller synthesis with arbitrary profiles, goals,
// and actuator options. The contract under fuzzing: Synthesize either rejects
// the input with an error, or the controller it returns is well-formed — pole
// in [0,1), finite virtual goal, and a conf that stays inside the actuator
// bounds and never goes NaN no matter what finite measurements arrive.
func FuzzSynthesize(f *testing.F) {
	// HB3813-shaped: queue-size knob, ~1 MB per queued request, hard goal.
	f.Add(0.0, 500.0, 1e6, 2e8, 3e6, 4.95e8, 0.0, 5000.0, 0.0, 4.8e8, 5.2e8, true)
	// HB2149-shaped: fractional knob, soft latency goal.
	f.Add(0.1, 0.3, 18.0, 1.0, 0.4, 10.0, 0.01, 1.0, 0.5, 9.0, 14.0, false)
	// Degenerate: all settings identical (vertical profile, must be rejected).
	f.Add(50.0, 0.0, 2.0, 1.0, 0.1, 100.0, 0.0, 1000.0, 0.0, 90.0, 110.0, true)
	// Noise-free plant (Δ = 1 ⇒ deadbeat pole 0).
	f.Add(10.0, 10.0, 5.0, 0.0, 0.0, 300.0, 0.0, 0.0, 10.0, 250.0, 350.0, true)

	f.Fuzz(func(t *testing.T, s0, ds, gain, base, jitter, goal, lo, hi, initial, m1, m2 float64, hard bool) {
		var p Profile
		for i := 0; i < 4; i++ {
			set := s0 + float64(i)*ds
			sp := SettingProfile{Setting: set}
			for j := -1; j <= 1; j++ {
				sp.Samples = append(sp.Samples, base+gain*set+jitter*float64(j))
			}
			p.Settings = append(p.Settings, sp)
		}
		c, err := Synthesize(p,
			Goal{Metric: "m", Target: goal, Hard: hard},
			Options{Min: lo, Max: hi, Initial: initial})
		if err != nil {
			return // malformed input must be rejected, not mis-synthesized
		}
		if pole := c.Pole(); math.IsNaN(pole) || pole < 0 || pole >= 1 {
			t.Fatalf("pole %v outside [0,1)", pole)
		}
		if vt := c.VirtualTarget(); math.IsNaN(vt) || math.IsInf(vt, 0) {
			t.Fatalf("virtual goal %v not finite", vt)
		}
		min, max := c.Bounds()
		check := func(what string, v float64) {
			if math.IsNaN(v) {
				t.Fatalf("%s is NaN", what)
			}
			if v < min || v > max {
				t.Fatalf("%s %v outside [%v,%v]", what, v, min, max)
			}
		}
		check("initial conf", c.Conf())
		log := declog.New(4)
		c.AttachLog(log, "m")
		for _, m := range []float64{m1, m2, m1, m2} {
			if math.IsNaN(m) || math.IsInf(m, 0) {
				continue // sensors deliver finite measurements by contract
			}
			var conf float64
			underLog(log, func() { conf = c.Update(m) })
			check("conf", conf)
			if lp := lastPole(log); math.IsNaN(lp) || lp < 0 || lp >= 1 {
				t.Fatalf("last pole %v outside [0,1)", lp)
			}
		}
	})
}

// Regression tests for the non-finite-input guards the fuzz target exercises.

func cleanProfile() Profile {
	var p Profile
	for i := 0; i < 4; i++ {
		set := float64(i) * 100
		p.Settings = append(p.Settings, SettingProfile{
			Setting: set,
			Samples: []float64{2*set + 9, 2*set + 10, 2*set + 11},
		})
	}
	return p
}

func TestSynthesizeRejectsNonFiniteGoal(t *testing.T) {
	for _, target := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Synthesize(cleanProfile(), Goal{Target: target, Hard: true}, Options{}); err == nil {
			t.Errorf("goal target %v accepted", target)
		}
	}
}

func TestSynthesizeRejectsNaNBoundsAndInitial(t *testing.T) {
	p := cleanProfile()
	if _, err := Synthesize(p, Goal{Target: 100}, Options{Min: math.NaN(), Max: 10}); err == nil {
		t.Error("NaN min accepted")
	}
	if _, err := Synthesize(p, Goal{Target: 100}, Options{Max: math.NaN()}); err == nil {
		t.Error("NaN max accepted")
	}
	if _, err := Synthesize(p, Goal{Target: 100}, Options{Max: 10, Initial: math.Inf(1)}); err == nil {
		t.Error("non-finite initial accepted")
	}
}

// A profile whose samples poison λ (NaN variability) must fail synthesis for
// a hard goal instead of producing a NaN virtual goal: before the guard, the
// first Update would have returned a NaN conf.
func TestSynthesizeRejectsNonFiniteLambda(t *testing.T) {
	p := cleanProfile()
	p.Settings[1].Samples = []float64{math.NaN(), math.NaN(), math.NaN()}
	if _, err := Synthesize(p, Goal{Target: 100, Hard: true}, Options{Max: 1000}); err == nil {
		t.Fatal("profile with NaN samples accepted")
	}
}

// With an unbounded actuator and a near-zero plant gain, the requested step
// overflows to ±∞. The knob must saturate, not go NaN — before the guard, an
// +∞ knob corrected by a −∞ step became NaN and stuck there.
func TestUpdateSaturatesInsteadOfNaN(t *testing.T) {
	c, err := NewController(Model{Alpha: 5e-324}, 0, 0, Goal{Target: 100}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := c.Update(0); !math.IsInf(v, 1) {
		t.Fatalf("expected +Inf saturation on an unbounded actuator, got %v", v)
	}
	v := c.Update(200) // error flips sign: −∞ step against a +∞ knob
	if math.IsNaN(v) {
		t.Fatal("conf went NaN on an opposing overflow step")
	}
	if !math.IsInf(v, -1) && v != 0 {
		t.Fatalf("expected saturation at the lower bound, got %v", v)
	}
}

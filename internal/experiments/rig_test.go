package experiments

import (
	"slices"
	"testing"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/declog"
	"smartconf/internal/proptest"
	"smartconf/internal/sim"
)

// The simulation breaks same-instant ties by scheduling order, and sim.Every
// queues each successor only when the previous tick fires, so periodic parts
// tie by registration order only at their first instant. The recorded
// artifacts therefore miss some reorders: no disturbance's first event lands
// on the probe's 1 s tick, so moving the disturbance after the probe changes
// no byte. These tests pin each runner's order directly: every part of a rig
// on a bare simulation records at one shared instant.

// orderRig returns a rig on a bare simulation whose parts record their
// names into got at 1 s.
func orderRig(got *[]string) *rig {
	s := sim.New()
	at := func(name string) { s.At(time.Second, func() { *got = append(*got, name) }) }
	return &rig{
		s: s, horizon: 2 * time.Second,
		smart: func() func(float64) {
			at("policy")
			return func(float64) { *got = append(*got, "goal change") }
		},
		actuate: func(float64) {},
		disturb: func(*chaos.Env) { at("disturbance") },
		load:    func(*chaos.Env) { at("load") },
		probe: []column{
			{Series{Name: "metric"}, func() (float64, bool) { *got = append(*got, "probe"); return 0, true }},
			{Series{Name: "knob"}, func() (float64, bool) { return 0, true }},
		},
		more:   func() bool { return false },
		goalAt: time.Second,
		judge:  func(*Result) {},
		cell: func() cellParts {
			return cellParts{
				attach: func(func()) { at("attach") },
				// A catalog fault strikes a third of the way into the fault
				// window.
				active: 3 * time.Second,
				synth: func([]smartconf.Option) func(perf, deputy float64) float64 {
					return func(float64, float64) float64 { return 0 }
				},
				sense: func() (float64, float64) { return 0, 0 },
				shift: func(start, _ time.Duration) chaos.Fault {
					return chaos.PlantShift{Label: "order", At: start, Apply: func() { *got = append(*got, "plan") }}
				},
				finish: func(*proptest.Report) {},
			}
		},
	}
}

func TestFigureRunnerOrder(t *testing.T) {
	var got []string
	orderRig(&got).runFigure(SmartConf(), nil)
	if want := []string{"policy", "disturbance", "probe", "goal change", "load"}; !slices.Equal(got, want) {
		t.Errorf("figure runner fired %v at one instant, want %v", got, want)
	}
}

func TestChaosCellRunnerOrder(t *testing.T) {
	var got []string
	cell := ChaosCell{Substrate: "order", Fault: "plant-shift", Seed: 1}
	runChaosCell(cell, orderRig(&got), nil, declog.Perturb{})
	if want := []string{"attach", "plan", "probe", "disturbance", "load"}; !slices.Equal(got, want) {
		t.Errorf("chaos cell runner fired %v at one instant, want %v", got, want)
	}
}

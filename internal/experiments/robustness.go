package experiments

import (
	"fmt"
	"strings"
	"time"

	"smartconf"
	"smartconf/internal/experiments/engine"
	"smartconf/internal/workload"
)

// The paper (§6.1): "SmartConf works in a wide variety of workload settings,
// but we do not have space to show that." This sweep shows it: ONE profile
// (the standard HB3813 campaign) synthesizes ONE controller configuration,
// which is then run against a grid of workloads it has never seen — varying
// burst size, cadence, request size, and write mix. The hard memory
// constraint must hold on every cell.

// RobustnessCell is one grid point.
type RobustnessCell struct {
	BurstSize     int
	BurstEverySec float64
	RequestMB     float64
	WriteRatio    float64
	ConstraintMet bool
	Violation     string
	Throughput    float64
}

// RobustnessGrid returns the workload grid.
func RobustnessGrid() []RobustnessCell {
	var cells []RobustnessCell
	for _, burst := range []int{150, 300, 450} {
		for _, every := range []float64{5, 7.5, 12.5} {
			for _, reqMB := range []float64{0.5, 1, 2} {
				for _, writes := range []float64{1.0, 0.7} {
					cells = append(cells, RobustnessCell{
						BurstSize: burst, BurstEverySec: every,
						RequestMB: reqMB, WriteRatio: writes,
					})
				}
			}
		}
	}
	return cells
}

// RunRobustnessSweep executes every grid cell with the one profiled
// controller and fills in the outcomes. The 54 cells are independent and fan
// out across the worker pool; each synthesizes from its own profile copy
// (synthesis is deterministic from the profile's content, so the copies
// change nothing about the results).
func RunRobustnessSweep() []RobustnessCell {
	profile := ProfileHB3813()
	return engine.MapSlice(RobustnessGrid(), func(cell RobustnessCell) RobustnessCell {
		policy := fmt.Sprintf("burst=%d every=%g req=%g writes=%g",
			cell.BurstSize, cell.BurstEverySec, cell.RequestMB, cell.WriteRatio)
		return memoKeyed("HB3813", policy, "robustness", 0, func() RobustnessCell {
			return runRobustnessCell(publicProfile(profile), cell)
		})
	})
}

func runRobustnessCell(profile *smartconf.Profile, cell RobustnessCell) RobustnessCell {
	phase := workload.YCSBPhase{Name: "cell", WriteRatio: cell.WriteRatio, RequestBytes: int64(cell.RequestMB * float64(mb))}
	r := hb3813Run{
		// The cell spec is the scenario description, so the seed derives
		// from it: every (BurstSize, BurstEverySec) cell replays its own
		// fixed stream.
		seed: int64(cell.BurstSize)*1000 + int64(cell.BurstEverySec*10), genSeed: 1,
		phases: []workload.YCSBPhase{phase}, burst: cell.BurstSize,
		every:   time.Duration(cell.BurstEverySec * float64(time.Second)),
		spacing: hb3813Spacing, horizon: 300 * time.Second,
	}
	ic := mustSynth(smartconf.NewIndirect(hb3813Spec(), profile, nil))
	res := r.evaluate(SmartConf(), func(pl *hb3813Plant) { pl.integrate(ic) })

	cell.ConstraintMet, cell.Throughput = res.ConstraintMet, res.Tradeoff
	switch {
	case res.Violation == "OOM":
		cell.Violation = fmt.Sprintf("OOM at %.0fs", res.ViolatedAt.Seconds())
	case !res.ConstraintMet:
		// Under a constant goal the worst violating sample is the peak.
		mem, _ := res.SeriesByName("used_memory")
		cell.Violation = fmt.Sprintf("memory %.0fMB at %.0fs", mem.Max()/float64(mb), res.ViolatedAt.Seconds())
	}
	return cell
}

// RenderRobustness formats the sweep.
func RenderRobustness(cells []RobustnessCell) string {
	var b strings.Builder
	ok := 0
	for _, c := range cells {
		if c.ConstraintMet {
			ok++
		}
	}
	fmt.Fprintf(&b, "Workload-robustness sweep (HB3813 controller, one profile, %d unseen workloads)\n", len(cells))
	fmt.Fprintf(&b, "constraint held in %d/%d cells\n\n", ok, len(cells))
	fmt.Fprintf(&b, "%7s %9s %7s %7s %8s %10s  %s\n",
		"burst", "every(s)", "reqMB", "writes", "OK?", "ops/s", "violation")
	for _, c := range cells {
		mark := "ok"
		if !c.ConstraintMet {
			mark = "X"
		}
		fmt.Fprintf(&b, "%7d %9.1f %7.1f %7.1f %8s %10.2f  %s\n",
			c.BurstSize, c.BurstEverySec, c.RequestMB, c.WriteRatio, mark, c.Throughput, c.Violation)
	}
	return b.String()
}

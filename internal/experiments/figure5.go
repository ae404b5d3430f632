package experiments

import (
	"fmt"
	"sort"
	"strings"

	"smartconf/internal/experiments/engine"
)

// Figure 5: trade-off performance comparison. For each of the six issues the
// harness runs SmartConf plus four static baselines — the best static
// setting found by exhaustively sweeping the grid ("static-optimal", the
// strongest baseline: it is chosen in hindsight over the full two-phase
// run), a representative suboptimal choice, and the pre-patch and patched
// default settings. Bars are normalized on static-optimal; baselines that
// violate the constraint are marked with an X like the paper's figure.

// Figure5Bar is one bar of the figure.
type Figure5Bar struct {
	Label         string
	Setting       float64
	Result        Result
	Speedup       float64 // trade-off relative to static-optimal (>1 = better)
	ConstraintMet bool
}

// Figure5Row holds one issue's bars.
type Figure5Row struct {
	Issue   string
	Bars    []Figure5Bar
	Optimal Result
}

// BuildFigure5 runs the full comparison for every scenario, fanning the six
// independent rows across the engine's worker pool.
func BuildFigure5() []Figure5Row {
	return engine.MapSlice(Scenarios(), BuildFigure5Row)
}

// BuildFigure5Row runs the comparison for one scenario. All runs the row
// needs — SmartConf, the static sweep, and the three representative statics
// — are independent, so they fan out together; the memoized run cache
// deduplicates representative settings that also appear in the grid.
// SmartConf is submitted first: it alone runs the scenario's profiling
// campaign before its own run, so it is the row's longest job, and starting
// it last would leave the other lanes idle at the row's end. Results are
// read back by position, so the order changes only the schedule.
func BuildFigure5Row(sc Scenario) Figure5Row {
	policies := make([]Policy, 0, len(sc.StaticGrid)+4)
	policies = append(policies, SmartConf())
	for _, v := range sc.StaticGrid {
		policies = append(policies, Static(v))
	}
	policies = append(policies,
		Static(sc.NonOptimal), Static(sc.PatchDefault), Static(sc.BuggyDefault))
	results := engine.MapSlice(policies, func(p Policy) Result { return runCached(sc, p) })
	n := len(sc.StaticGrid)
	smart, grid := results[0], results[1:n+1]
	nonOpt, patch, buggy := results[n+1], results[n+2], results[n+3]

	// Exhaustive sweep for the best static setting that satisfies the
	// constraint across both phases (§6.3's methodology). Selection walks the
	// grid in its declared order, so ties resolve exactly as the sequential
	// sweep resolved them.
	statics := make(map[float64]Result, len(sc.StaticGrid))
	var optimal *Result
	for i, v := range sc.StaticGrid {
		r := grid[i]
		statics[v] = r
		if r.ConstraintMet && (optimal == nil || r.BetterThan(*optimal)) {
			c := r
			optimal = &c
		}
	}
	if optimal == nil {
		// No static setting satisfies the constraint: normalize on the
		// least-bad one so the figure still renders.
		values := append([]float64(nil), sc.StaticGrid...)
		sort.Float64s(values)
		c := statics[values[0]]
		for _, v := range values[1:] {
			if statics[v].BetterThan(c) {
				c = statics[v]
			}
		}
		optimal = &c
	}

	row := Figure5Row{Issue: sc.ID, Optimal: *optimal}
	add := func(label string, setting float64, r Result) {
		row.Bars = append(row.Bars, Figure5Bar{
			Label:         label,
			Setting:       setting,
			Result:        r,
			Speedup:       r.Speedup(*optimal),
			ConstraintMet: r.ConstraintMet,
		})
	}
	add("SmartConf", 0, smart)
	add("Static-Optimal", optimal.Policy.Static, *optimal)
	add("Static-Nonoptimal", sc.NonOptimal, nonOpt)
	add("Static-Patch-Default", sc.PatchDefault, patch)
	add("Static-Buggy-Default", sc.BuggyDefault, buggy)
	return row
}

// RenderFigure5 formats the comparison as a table, with "X" marking bars
// that fail the constraint (the paper's red crosses).
func RenderFigure5(rows []Figure5Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 5: trade-off speedup normalized on the best static configuration")
	fmt.Fprintln(&b, "(X = fails the performance constraint; setting shown per bar)")
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "%-8s %-22s %14s %9s %5s\n", "Issue", "Policy", "Setting", "Speedup", "OK?")
	for _, row := range rows {
		for _, bar := range row.Bars {
			mark := "ok"
			if !bar.ConstraintMet {
				mark = "X"
			}
			setting := "-"
			if bar.Label != "SmartConf" {
				setting = humanSetting(bar.Setting)
			}
			fmt.Fprintf(&b, "%-8s %-22s %14s %8.2fx %5s\n",
				row.Issue, bar.Label, setting, bar.Speedup, mark)
		}
		fmt.Fprintf(&b, "%-8s (trade-off: %s)\n\n", "", row.Optimal.TradeoffName)
	}
	return b.String()
}

func humanSetting(v float64) string {
	switch {
	case v >= 1<<40:
		return "unbounded"
	case v >= 1<<20 && v == float64(int64(v)) && int64(v)%(1<<20) == 0:
		return fmt.Sprintf("%dMB", int64(v)>>20)
	case v >= 10000:
		return fmt.Sprintf("%.3g", v)
	case v == float64(int64(v)):
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

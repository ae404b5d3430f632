// Command smartconf-bench regenerates every table and figure of the paper's
// evaluation on the simulated substrates and prints them to stdout.
//
// Usage:
//
//	smartconf-bench              # everything
//	smartconf-bench -only fig5   # one artifact: table2..table7, fig5..fig8
//	smartconf-bench -list        # list artifact ids in render order
//	smartconf-bench -parallel 1  # sequential runs (output is identical)
//
// Independent simulation runs fan out across -parallel workers (default: all
// CPUs); results reassemble in a fixed order and repeated runs come from a
// process-wide cache, so the output is byte-identical at any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"smartconf/internal/experiments"
	"smartconf/internal/experiments/engine"
)

// unknownArtifact builds the error text for an id that is not registered,
// listing every valid id so the caller does not need a second -list run.
func unknownArtifact(id string) string {
	var ids []string
	for _, a := range experiments.Artifacts() {
		ids = append(ids, a.ID)
	}
	return fmt.Sprintf("unknown artifact %q; valid ids:\n  %s\n", id, strings.Join(ids, "\n  "))
}

// renderArtifacts renders the given artifacts in order into one string —
// the unit the byte-identity test compares across worker counts.
func renderArtifacts(arts []experiments.Artifact) (string, error) {
	var b strings.Builder
	for _, a := range arts {
		fmt.Fprintf(&b, "════════ %s ════════\n\n", a.Title)
		out, err := a.Render()
		if err != nil {
			return "", fmt.Errorf("%s: %w", a.ID, err)
		}
		fmt.Fprintln(&b, out)
	}
	return b.String(), nil
}

// main delegates to run so deferred profile writers execute before the
// process exits (os.Exit skips defers).
func main() {
	os.Exit(run())
}

func run() int {
	only := flag.String("only", "", "render a single artifact (see -list)")
	list := flag.Bool("list", false, "list artifact ids and exit")
	scale := flag.Bool("scale", false, "run the raw-speed campaign instead of the paper artifacts")
	scaleRequests := flag.Int64("scale-requests", 10_000_000, "requests per substrate for -scale")
	csvDir := flag.String("csv", "", "also write the figure time series as CSV files into this directory")
	declogDir := flag.String("declog", "", "also export one decision-log envelope per chaos substrate into this directory (input for smartconf-replay)")
	parallel := flag.Int("parallel", engine.Workers(), "number of concurrent simulation workers")
	cacheDir := flag.String("cachedir", "", "persist simulation results in this directory and reuse them across runs")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	engine.SetWorkers(*parallel)

	if *cacheDir != "" {
		if err := experiments.EnablePersistentRunCache(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "cachedir: %v\n", err)
			return 1
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *csvDir != "" {
		if err := writeCSVs(*csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "csv export: %v\n", err)
			return 1
		}
		fmt.Printf("wrote figure series CSVs to %s\n", *csvDir)
	}
	if *declogDir != "" {
		if err := writeDecisionLogs(*declogDir); err != nil {
			fmt.Fprintf(os.Stderr, "declog export: %v\n", err)
			return 1
		}
		fmt.Printf("wrote decision-log envelopes to %s\n", *declogDir)
	}

	if *list {
		for _, a := range experiments.Artifacts() {
			fmt.Printf("%-8s %s\n", a.ID, a.Title)
		}
		return 0
	}

	if *scale {
		out := renderScale(*scaleRequests)
		fmt.Print(out)
		if *cacheDir != "" {
			executed, _ := experiments.RunCacheStats()
			loaded, written := experiments.PersistentRunCacheStats()
			fmt.Fprintf(os.Stderr, "run cache: %d simulated, %d loaded from %s, %d written\n",
				executed, loaded, *cacheDir, written)
		}
		return 0
	}

	arts := experiments.Artifacts()
	if *only != "" {
		i := slices.IndexFunc(arts, func(a experiments.Artifact) bool { return a.ID == *only })
		if i < 0 {
			fmt.Fprint(os.Stderr, unknownArtifact(*only))
			return 2
		}
		arts = arts[i : i+1]
	}
	out, err := renderArtifacts(arts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Print(out)
	if *cacheDir != "" {
		// To stderr so the rendered artifacts stay byte-identical with and
		// without the cache.
		executed, _ := experiments.RunCacheStats()
		loaded, written := experiments.PersistentRunCacheStats()
		fmt.Fprintf(os.Stderr, "run cache: %d simulated, %d loaded from %s, %d written\n",
			executed, loaded, *cacheDir, written)
	}
	return 0
}

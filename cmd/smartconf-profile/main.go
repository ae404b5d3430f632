// Command smartconf-profile runs the profiling campaign for one benchmark
// issue and writes the resulting "<conf>.SmartConf.sys" sample file — the
// §5.5 artifact a SmartConf-equipped system synthesizes its controller from.
//
// Usage:
//
//	smartconf-profile -issue HB3813 -out ./profiles
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"

	"smartconf/internal/core"
	"smartconf/internal/experiments"
	"smartconf/internal/sysfile"
)

var profilers = map[string]struct {
	conf string
	run  func() core.Profile
}{
	"CA6059": {"memtable_total_space_in_mb", experiments.ProfileCA6059},
	"HB2149": {"global.memstore.lowerLimit", experiments.ProfileHB2149},
	"HB3813": {"ipc.server.max.queue.size", experiments.ProfileHB3813},
	"HB6728": {"ipc.server.response.queue.maxsize", experiments.ProfileHB6728},
	"HD4995": {"content-summary.limit", experiments.ProfileHD4995},
	"MR2820": {"local.dir.minspacestart", experiments.ProfileMR2820},
	"LLMKV":  {"max.num.batched.tokens", experiments.ProfileLLMKV},
}

// main delegates to run so deferred profile writers execute before the
// process exits (os.Exit skips defers).
func main() {
	os.Exit(run())
}

func run() int {
	issue := flag.String("issue", "", "benchmark issue id (CA6059, HB2149, HB3813, HB6728, HD4995, MR2820, LLMKV)")
	out := flag.String("out", ".", "directory for the <conf>.SmartConf.sys file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	p, ok := profilers[*issue]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown or missing -issue %q; choose one of:\n", *issue)
		ids := make([]string, 0, len(profilers))
		for id := range profilers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(os.Stderr, "  %s (%s)\n", id, profilers[id].conf)
		}
		return 2
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

	profile := p.run()
	model, err := profile.Fit()
	if err != nil {
		fmt.Fprintf(os.Stderr, "profiling %s: %v\n", *issue, err)
		return 1
	}
	path := filepath.Join(*out, p.conf+".SmartConf.sys")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer f.Close()
	if err := sysfile.EncodeProfile(f, profile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Printf("profiled %s (%s): %d samples over %d settings\n",
		*issue, p.conf, profile.TotalSamples(), len(profile.Settings))
	fmt.Printf("  model: %v\n", model)
	pole := core.PoleFromDelta(profile.Delta())
	fmt.Printf("  λ = %.4f  Δ = %.3f  pole = %.3f  tolerated gain error < %.3f× soft, %.3f× hard\n",
		profile.Lambda(), profile.Delta(), pole, core.GainTolerance(pole, false), core.GainTolerance(pole, true))
	fmt.Printf("  wrote %s\n", path)
	return 0
}

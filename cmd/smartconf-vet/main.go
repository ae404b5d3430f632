// Command smartconf-vet runs the smartconf static-analysis suite
// (internal/lint): determinism, cachekey, floatcmp, guardedby, hotalloc,
// confbounds and seedflow — the machine-checked invariants behind the
// harness's byte-identical-output and zero-allocation guarantees.
//
// From the module root (packages load through `go list` and type-check
// from source):
//
//	smartconf-vet ./...
//	smartconf-vet -run determinism,floatcmp ./internal/...
//	smartconf-vet -allows ./...
//
// Exit status: 0 when clean, 1 on usage/load errors, 2 when diagnostics
// were reported. Individual findings are suppressed in source with
//
//	//smartconf:allow <analyzer> -- <reason>
//
// on the offending line or the line above (the reason is mandatory; a
// suppression without one is inert). -allows audits the escape hatch: it
// lists every suppression comment with its analyzers, justification and
// position, and exits 2 if any suppression lacks a reason.
//
// Under GitHub Actions (GITHUB_ACTIONS=true) findings are additionally
// emitted as ::error workflow commands so they surface as inline PR
// annotations.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"smartconf/internal/lint"
)

func main() {
	listFlag := flag.Bool("list", false, "list the analyzers and exit")
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	allowsFlag := flag.Bool("allows", false, "audit //smartconf:allow suppressions instead of running analyzers")
	flag.Parse()

	analyzers, err := selectAnalyzers(*runFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *allowsFlag {
		os.Exit(runAllows(flag.Args()))
	}
	os.Exit(runAnalyzers(flag.Args(), analyzers))
}

func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if names == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("smartconf-vet: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// runAnalyzers loads packages with the go tool and checks them all.
func runAnalyzers(patterns []string, analyzers []*lint.Analyzer) int {
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	found := 0
	for _, pkg := range pkgs {
		diags, err := lint.Check(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
			emitGitHubAnnotation(d.Pos, d.Analyzer+": "+d.Message)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "smartconf-vet: %d finding(s)\n", found)
		return 2
	}
	return 0
}

// runAllows audits every //smartconf:allow suppression in the matched
// packages: each is listed with its analyzers, position and justification,
// and suppressions missing the mandatory ` -- <reason>` tail fail the audit
// (they are inert at analysis time, so leaving one in place means the
// finding it meant to cover is either absent or un-suppressed).
func runAllows(patterns []string) int {
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	total, missing := 0, 0
	for _, pkg := range pkgs {
		for _, s := range lint.CollectAllowSites(pkg) {
			total++
			names := strings.Join(s.Analyzers, ",")
			if s.Reason == "" {
				missing++
				msg := fmt.Sprintf("allow %s has no reason (` -- <reason>` is mandatory; this suppression is inert)", names)
				fmt.Fprintf(os.Stderr, "%s:%d: %s\n", s.Pos.Filename, s.Pos.Line, msg)
				emitGitHubAnnotation(s.Pos, msg)
				continue
			}
			fmt.Printf("%s:%d: %s -- %s\n", s.Pos.Filename, s.Pos.Line, names, s.Reason)
		}
	}
	fmt.Printf("smartconf-vet: %d suppression(s)", total)
	if missing > 0 {
		fmt.Printf(", %d without a reason", missing)
	}
	fmt.Println()
	if missing > 0 {
		return 2
	}
	return 0
}

// emitGitHubAnnotation prints a ::error workflow command when running under
// GitHub Actions, so findings become inline annotations on the PR diff. The
// file path is made repo-relative (workflow commands resolve against the
// workspace root); positions outside the working tree are emitted as-is.
func emitGitHubAnnotation(pos token.Position, msg string) {
	if os.Getenv("GITHUB_ACTIONS") != "true" {
		return
	}
	file := pos.Filename
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	fmt.Printf("::error file=%s,line=%d,col=%d::%s\n", file, pos.Line, pos.Column, msg)
}

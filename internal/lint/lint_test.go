package lint_test

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"smartconf/internal/lint"
)

// The golden tests load packages from testdata/src/<path> under the
// synthetic import prefix lint.test/ and compare analyzer output against
// `// want "substring"` comments: every diagnostic must match a want on its
// line, and every want must be matched by a diagnostic. Each testdata
// package also carries one //smartconf:allow case proving the suppression
// escape hatch.

const testPathPrefix = "lint.test/"

// testImporter resolves lint.test/... import paths from testdata/src and
// delegates everything else (the standard library) to the source importer.
type testImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*lint.Package
}

func newTestImporter(fset *token.FileSet) *testImporter {
	return &testImporter{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*lint.Package{},
	}
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, testPathPrefix) {
		return ti.std.Import(path)
	}
	pkg, err := ti.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func (ti *testImporter) load(path string) (*lint.Package, error) {
	if pkg, ok := ti.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join("testdata", "src", filepath.FromSlash(strings.TrimPrefix(path, testPathPrefix)))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	pkg, err := lint.CheckFiles(ti.fset, ti, path, dir, files)
	if err != nil {
		return nil, err
	}
	ti.pkgs[path] = pkg
	return pkg, nil
}

var quoteRx = regexp.MustCompile(`"([^"]*)"`)

type expectation struct {
	substr  string
	matched bool
}

// collectWants indexes `// want "..." ["..."]...` comments by file basename
// and line.
func collectWants(pkg *lint.Package) map[string]map[int][]*expectation {
	wants := map[string]map[int][]*expectation{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				base := filepath.Base(pos.Filename)
				if wants[base] == nil {
					wants[base] = map[int][]*expectation{}
				}
				for _, m := range quoteRx.FindAllStringSubmatch(text, -1) {
					wants[base][pos.Line] = append(wants[base][pos.Line], &expectation{substr: m[1]})
				}
			}
		}
	}
	return wants
}

// runAnalyzerTest checks one analyzer against one testdata package: the
// diagnostics and the want comments must match exactly, in both directions.
func runAnalyzerTest(t *testing.T, a *lint.Analyzer, pkgPath string) {
	t.Helper()
	fset := token.NewFileSet()
	pkg, err := newTestImporter(fset).load(pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", pkgPath, err)
	}
	diags, err := lint.Check(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("checking %s: %v", pkgPath, err)
	}
	wants := collectWants(pkg)
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		found := false
		for _, e := range wants[base][d.Pos.Line] {
			if !e.matched && strings.Contains(d.Message, e.substr) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for base, lines := range wants {
		for line, exps := range lines {
			for _, e := range exps {
				if !e.matched {
					t.Errorf("%s:%d: expected a diagnostic containing %q, got none", base, line, e.substr)
				}
			}
		}
	}
}

// swap temporarily overrides an analyzer configuration variable, returning
// the restore function.
func swap[T any](p *T, v T) func() {
	old := *p
	*p = v
	return func() { *p = old }
}

func TestDeterminismAnalyzer(t *testing.T) {
	defer swap(&lint.DeterminismPackages, []string{"lint.test/determinism"})()
	runAnalyzerTest(t, lint.DeterminismAnalyzer, "lint.test/determinism/sim")
}

func TestCacheKeyAnalyzer(t *testing.T) {
	defer swap(&lint.CachedRunPaths, []string{"lint.test/cachekey/experiments"})()
	defer swap(&lint.EnginePathSuffix, "cachekey/engine")()
	runAnalyzerTest(t, lint.CacheKeyAnalyzer, "lint.test/cachekey/experiments")
}

// TestCacheKeyDiskCacheRules exercises the analyzer's persistent-layer mode:
// inside the disk-cache package, gob encoding and wall-clock reads are
// findings regardless of adapter discipline.
func TestCacheKeyDiskCacheRules(t *testing.T) {
	defer swap(&lint.DiskCachePaths, []string{"lint.test/cachekey/diskcache"})()
	runAnalyzerTest(t, lint.CacheKeyAnalyzer, "lint.test/cachekey/diskcache")
}

func TestFloatCmpAnalyzer(t *testing.T) {
	defer swap(&lint.FloatCmpPackages, []string{"lint.test/floatcmp"})()
	runAnalyzerTest(t, lint.FloatCmpAnalyzer, "lint.test/floatcmp")
}

func TestGuardedByAnalyzer(t *testing.T) {
	runAnalyzerTest(t, lint.GuardedByAnalyzer, "lint.test/guardedby")
}

func TestHotAllocAnalyzer(t *testing.T) {
	runAnalyzerTest(t, lint.HotAllocAnalyzer, "lint.test/hotalloc")
}

func TestConfBoundsAnalyzer(t *testing.T) {
	defer swap(&lint.BoundSpecTypes, []string{"lint.test/confbounds.Spec"})()
	defer swap(&lint.ConfConstructors, []string{"lint.test/confbounds.New"})()
	runAnalyzerTest(t, lint.ConfBoundsAnalyzer, "lint.test/confbounds")
}

func TestSeedFlowAnalyzer(t *testing.T) {
	defer swap(&lint.SeedFlowPackages, []string{"lint.test/seedflow"})()
	runAnalyzerTest(t, lint.SeedFlowAnalyzer, "lint.test/seedflow")
}

// TestCollectAllowSites pins the -allows audit surface: every suppression
// comment is reported, including the reason-less one that analysis itself
// ignores.
func TestCollectAllowSites(t *testing.T) {
	fset := token.NewFileSet()
	pkg, err := newTestImporter(fset).load("lint.test/hotalloc")
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	sites := lint.CollectAllowSites(pkg)
	if len(sites) != 2 {
		t.Fatalf("got %d allow sites, want 2: %v", len(sites), sites)
	}
	var reasoned, inert int
	for _, s := range sites {
		if len(s.Analyzers) != 1 || s.Analyzers[0] != "hotalloc" {
			t.Errorf("site %s: analyzers = %v, want [hotalloc]", s.Pos, s.Analyzers)
		}
		if s.Reason == "" {
			inert++
		} else {
			reasoned++
		}
	}
	if reasoned != 1 || inert != 1 {
		t.Errorf("got %d reasoned + %d inert sites, want 1 + 1", reasoned, inert)
	}
}

// TestHotPathRootsAnnotated pins the contract between the whole-run
// allocation benchgates and the hotalloc analyzer: every benchgate-gated
// request-path entry point must carry the //smartconf:hotpath annotation, so
// the static analyzer guards exactly the code the runtime gates measure.
func TestHotPathRootsAnnotated(t *testing.T) {
	roots := map[string][]string{
		"smartconf":                    {"Conf.SetPerf", "Conf.Value", "IndirectConf.SetPerf", "IndirectConf.Value"},
		"smartconf/internal/core":      {"Controller.Update"},
		"smartconf/internal/rpcserver": {"Offer", "finishSlot", "drainDone"},
		"smartconf/internal/llmserve":  {"Offer", "endStepArg"},
		"smartconf/internal/kvstore":   {"Write", "flushDone"},
		"smartconf/internal/dfs":       {"Write"},
		"smartconf/internal/mapred":    {"RunJob", "schedulerTick", "writeChunk", "reduceDone"},
		"smartconf/internal/declog":    {"Log.Append", "AppendLocked", "Log.appendLocked"},
		"smartconf/internal/cluster":   {"Dispatch", "Redispatch", "Route", "RouteExcluding"},
		"smartconf/internal/workload":  {"NextOp"},
	}
	paths := make([]string, 0, len(roots))
	for p := range roots {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	pkgs, err := lint.Load("", paths...)
	if err != nil {
		t.Fatalf("loading substrate packages: %v", err)
	}
	byPath := map[string]*lint.Package{}
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
	}
	for _, path := range paths {
		pkg := byPath[path]
		if pkg == nil {
			t.Errorf("package %s not loaded", path)
			continue
		}
		for _, fn := range roots[path] {
			if !funcHasHotPathMarker(pkg, fn) {
				t.Errorf("%s.%s is a benchgate-gated entry point but lacks the //smartconf:hotpath annotation", path, fn)
			}
		}
	}
}

// funcHasHotPathMarker reports whether the function name, or the method
// Recv.name when name carries a receiver type, is annotated.
func funcHasHotPathMarker(pkg *lint.Package, name string) bool {
	recv, fn, ok := strings.Cut(name, ".")
	if !ok {
		recv, fn = "", name
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fn || fd.Doc == nil || (recv != "" && recvTypeName(fd) != recv) {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), "//smartconf:hotpath") {
					return true
				}
			}
		}
	}
	return false
}

// recvTypeName returns the name of a method's receiver type, "" for a
// function.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestLoadChecksEachPackageOnce pins the loader's contract: it returns the
// packages the patterns match, by import path, and none of the module
// dependencies it checked to import them, and each module package is
// checked once, so a returned package's import of another returned package
// is that package itself.
func TestLoadChecksEachPackageOnce(t *testing.T) {
	pkgs, err := lint.Load("", "smartconf/internal/core", "smartconf/internal/stat")
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.Path)
	}
	if want := "smartconf/internal/core smartconf/internal/stat"; strings.Join(paths, " ") != want {
		t.Fatalf("loaded %v, want %s (core's import of internal/declog is a dependency only)", paths, want)
	}
	core, stat := pkgs[0].Types, pkgs[1].Types
	for _, imp := range core.Imports() {
		if imp.Path() == stat.Path() && imp != stat {
			t.Fatalf("internal/core imports a second type-checked copy of %s", stat.Path())
		}
	}
}

// TestAnalyzersOutsideScopedPackagesAreSilent pins the package scoping: the
// path-scoped analyzers must not fire on packages outside their configured
// lists, however many violations those packages contain.
func TestAnalyzersOutsideScopedPackagesAreSilent(t *testing.T) {
	defer swap(&lint.DeterminismPackages, []string{"lint.test/nonexistent"})()
	defer swap(&lint.FloatCmpPackages, []string{"lint.test/nonexistent"})()
	defer swap(&lint.SeedFlowPackages, []string{"lint.test/nonexistent"})()
	for _, tc := range []struct {
		a    *lint.Analyzer
		path string
	}{
		{lint.DeterminismAnalyzer, "lint.test/determinism/sim"},
		{lint.FloatCmpAnalyzer, "lint.test/floatcmp"},
		{lint.SeedFlowAnalyzer, "lint.test/seedflow"},
	} {
		fset := token.NewFileSet()
		pkg, err := newTestImporter(fset).load(tc.path)
		if err != nil {
			t.Fatalf("loading %s: %v", tc.path, err)
		}
		diags, err := lint.Check(pkg, []*lint.Analyzer{tc.a})
		if err != nil {
			t.Fatalf("checking %s: %v", tc.path, err)
		}
		if len(diags) != 0 {
			t.Errorf("%s on out-of-scope %s: got %d diagnostics, want 0 (first: %s)",
				tc.a.Name, tc.path, len(diags), diags[0])
		}
	}
}

package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// Configuration of the cachekey analyzer. Tests override these to point at
// testdata packages.
var (
	// CachedRunPaths are the packages whose code must route every
	// simulation through the run cache and key it fully. The fleet layer in
	// internal/cluster is reachable from cached fleet scenarios, so a direct
	// engine.Memo call or an unscoped engine.Key literal there would poison
	// the same cache the experiments adapters guard.
	CachedRunPaths = []string{
		"smartconf/internal/experiments",
		"smartconf/internal/cluster",
	}
	// EnginePathSuffix identifies the run-engine package among the imports.
	EnginePathSuffix = "internal/experiments/engine"
	// AdapterFiles are the files (basenames) allowed to talk to the engine
	// cache directly: the experiments-side adapter layer.
	AdapterFiles = map[string]bool{"runcache.go": true}
	// AdapterFuncs are the memoizing entry points of the adapter layer; a
	// scenario-run call is legitimate when it happens inside a function
	// literal handed to one of these (that closure IS the cached compute).
	AdapterFuncs = map[string]bool{
		"runCached": true, "memoProfile": true, "memoKeyed": true,
		"profileSweep": true,
	}
	// DiskCachePaths are the serialization layers whose output bytes carry a
	// byte-identity guarantee: the persistent run cache (cache files must be
	// pure functions of the (stamp, key, value) triple) and the decision-log
	// codec (zero-perturbation replay must reproduce an envelope byte for
	// byte). Both rule out encoding/gob (its map encoding is randomized per
	// process) and wall-clock reads.
	DiskCachePaths = []string{
		"smartconf/internal/experiments/engine/diskcache",
		"smartconf/internal/declog",
	}
)

// CacheKeyAnalyzer enforces run-cache discipline in the experiments package:
// every simulation goes through the memoized adapters in runcache.go, so no
// driver re-simulates a (scenario, policy, seed, schedule) tuple the cache
// already holds, and no cache key omits its scenario component.
var CacheKeyAnalyzer = &Analyzer{
	Name: "cachekey",
	Doc: "experiment drivers must reach simulation through the runcache.go " +
		"adapters; direct Scenario.Run / engine.Memo calls bypass or mis-key the run cache; " +
		"the persistent cache layer must encode deterministically (no gob, no wall-clock)",
	Run: runCacheKey,
}

func runCacheKey(pass *Pass) error {
	if pathMatchesPrefix(pass.Pkg.Path(), DiskCachePaths) {
		return runDiskCacheRules(pass)
	}
	if !pathMatchesPrefix(pass.Pkg.Path(), CachedRunPaths) {
		return nil
	}
	for _, file := range pass.Files {
		name := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		inAdapter := AdapterFiles[name]
		parents := buildParents(file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCacheKeyCall(pass, n, parents, inAdapter)
			case *ast.CompositeLit:
				checkEngineKeyLit(pass, n)
			}
			return true
		})
	}
	return nil
}

// runDiskCacheRules checks the byte-deterministic serialization layers:
// cache files and decision-log envelopes must be byte-identical across
// processes and worker counts, which rules out gob (randomized map-entry
// order) and any wall-clock content. time.Now in a key or envelope would
// make identical runs produce different bytes and silently defeat the
// warm-rebuild and zero-perturbation-replay identity guarantees.
func runDiskCacheRules(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name := pkgFunc(pass.Info, call)
			switch path {
			case "encoding/gob":
				pass.Reportf(call.Pos(),
					"encoding/gob in a byte-deterministic serialization layer: gob output is not byte-deterministic (map encoding order is randomized); encode with encoding/json over fixed-order structs")
			case "time":
				if name == "Now" || name == "Since" || name == "Until" {
					pass.Reportf(call.Pos(),
						"wall-clock time.%s in a byte-deterministic serialization layer; output bytes must be pure functions of their inputs", name)
				}
			}
			return true
		})
	}
	return nil
}

func checkCacheKeyCall(pass *Pass, call *ast.CallExpr, parents map[ast.Node]ast.Node, inAdapter bool) {
	if inAdapter {
		return
	}
	// Direct engine.Memo outside the adapter layer: the key shape is then
	// this one call site's private convention, invisible to the cache audit.
	if path, name := pkgFunc(pass.Info, call); name == "Memo" && hasSuffixPath(path, EnginePathSuffix) {
		pass.Reportf(call.Pos(),
			"direct engine.Memo call outside runcache.go; route through the memoKeyed adapter so every key carries scenario, policy, seed and schedule")
		return
	}
	// sc.Run(p): calling a Scenario's run function directly skips the cache.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if selection, ok := pass.Info.Selections[sel]; ok && selection.Kind() == types.FieldVal {
			field := selection.Obj()
			if field.Name() == "Run" && ownerIsScenario(selection.Recv(), pass.Pkg) {
				if !insideAdapterClosure(pass, call, parents) {
					pass.Reportf(call.Pos(),
						"direct Scenario.Run call bypasses the run cache; use runCached(sc, p)")
				}
				return
			}
		}
	}
	// RunXYZ(p): a package-level scenario entry point (func(Policy) Result)
	// invoked outside a memoized closure re-simulates on every call.
	if obj := calleeObj(pass.Info, call); obj != nil && obj.Pkg() == pass.Pkg {
		if fn, ok := obj.(*types.Func); ok && isScenarioRunSig(fn, pass.Pkg) {
			if !insideAdapterClosure(pass, call, parents) {
				pass.Reportf(call.Pos(),
					"direct call to scenario entry point %s bypasses the run cache; use runCached or wrap it in a memoized adapter", fn.Name())
			}
		}
	}
}

// checkEngineKeyLit requires every engine.Key composite literal to populate
// its Scenario field: a key without a scenario aliases unrelated runs.
func checkEngineKeyLit(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Name() != "Key" || named.Obj().Pkg() == nil ||
		!hasSuffixPath(named.Obj().Pkg().Path(), EnginePathSuffix) {
		return
	}
	if len(lit.Elts) > 0 {
		if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
			return // positional literal fills every field, Scenario included
		}
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Scenario" {
				if lit, ok := kv.Value.(*ast.BasicLit); ok && lit.Value == `""` {
					break
				}
				return
			}
		}
	}
	pass.Reportf(lit.Pos(), "engine.Key literal without a Scenario component; keys must identify the scenario they cache")
}

// ownerIsScenario reports whether recv is the experiments Scenario struct.
func ownerIsScenario(recv types.Type, pkg *types.Package) bool {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == "Scenario" && named.Obj().Pkg() == pkg
}

// isScenarioRunSig matches func(Policy) Result with both types defined in
// the experiments package — the shape of every scenario entry point.
func isScenarioRunSig(fn *types.Func, pkg *types.Package) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	return isNamedIn(sig.Params().At(0).Type(), "Policy", pkg) &&
		isNamedIn(sig.Results().At(0).Type(), "Result", pkg)
}

func isNamedIn(t types.Type, name string, pkg *types.Package) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name && named.Obj().Pkg() == pkg
}

// insideAdapterClosure reports whether n sits inside a function literal that
// is an argument to one of the memoizing adapter functions — i.e. the call
// is the cached computation itself, not a cache bypass.
func insideAdapterClosure(pass *Pass, n ast.Node, parents map[ast.Node]ast.Node) bool {
	for cur := parents[n]; cur != nil; cur = parents[cur] {
		lit, ok := cur.(*ast.FuncLit)
		if !ok {
			continue
		}
		call, ok := parents[lit].(*ast.CallExpr)
		if !ok {
			continue
		}
		if obj := calleeObj(pass.Info, call); obj != nil && obj.Pkg() == pass.Pkg && AdapterFuncs[obj.Name()] {
			return true
		}
	}
	return false
}

// buildParents maps every node in file to its parent, for upward walks.
func buildParents(file *ast.File) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

func hasSuffixPath(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load enumerates patterns and their dependencies with the go tool, then
// parses and type-checks each module package once, in dependency order, and
// returns the packages the patterns match, by import path. A module package
// imports its module dependencies from the packages this call already
// checked and the standard library through the source importer, so the
// loader works offline with no dependency on golang.org/x/tools;
// dependencies the patterns do not match are checked only so that they can
// be imported. dir is the working directory for the go tool ("" means the
// current one, which must be inside the module).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// -deps lists every package after the packages it imports.
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	var listed []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		listed = append(listed, lp)
	}

	// One shared FileSet and one importer: the source importer caches every
	// standard-library package it type-checks, so each is processed once for
	// the whole run.
	fset := token.NewFileSet()
	imp := moduleImporter{std: importer.ForCompiler(fset, "source", nil), checked: map[string]*types.Package{}}

	var pkgs []*Package
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := typecheck(fset, imp, lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		imp.checked[lp.ImportPath] = pkg.Types
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// moduleImporter resolves the module packages Load has checked from its own
// results and everything else, the standard library, from source.
type moduleImporter struct {
	std     types.Importer
	checked map[string]*types.Package
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.checked[path]; ok {
		return pkg, nil
	}
	return m.std.Import(path)
}

// CheckFiles parses and type-checks one package from an explicit file list
// with the given importer — the entry point for the analyzer tests, which
// load testdata packages directly.
func CheckFiles(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	return typecheck(fset, imp, path, dir, files)
}

// typecheck parses the named files and type-checks them as one package.
func typecheck(fset *token.FileSet, imp types.Importer, path, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if typeErr != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, typeErr)
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

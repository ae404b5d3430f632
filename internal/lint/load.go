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
	Error      *struct{ Err string }
}

// Load enumerates patterns with the go tool, then parses and type-checks
// each matched package. Imports (standard library and intra-module alike)
// resolve through the source importer, so the loader works offline with no
// dependency on golang.org/x/tools; dir is the working directory for the go
// tool ("" means the current one, which must be inside the module).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles,Error"}, patterns...)
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

	// One shared FileSet and one shared source importer: the importer caches
	// every dependency package it type-checks, so the standard library is
	// processed once for the whole run.
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)

	var pkgs []*Package
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
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
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
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

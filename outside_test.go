package smartconf_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// outsideProgram is a program in another module. It names every exported
// identifier of package smartconf (TestPublicAPIFromAnotherModule checks
// that it does) and calls every constructor and option with a value it
// builds itself, so an exported signature that needs a type from an
// internal package fails to compile. It then asks a decision log who set
// each knob, and why.
const outsideProgram = `package main

import (
	"bytes"
	"fmt"
	"strings"

	"smartconf"
)

const sys = "queue.limit @ memory\nqueue.limit.max = 1000\n"

const goals = "memory.goal = 100\n"

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func main() {
	var plan smartconf.Plan = smartconf.DefaultPlan(10, 30, 3)
	var profile *smartconf.Profile
	profile, err := plan.Run(func(setting float64) (float64, error) { return setting, nil })
	must(err)
	var buf bytes.Buffer
	must(profile.Write(&buf))
	profile, err = smartconf.ReadProfile(&buf)
	must(err)

	var log *smartconf.DecisionLog = smartconf.NewDecisionLog(16)
	var alert smartconf.AlertFunc = func(a smartconf.Alert) { _ = a.String() }
	opts := []smartconf.Option{
		smartconf.WithDecisionLog(log),
		smartconf.WithAlert(alert),
		smartconf.WithAlertThreshold(3),
		smartconf.WithPerturb(smartconf.Perturb{}),
	}
	spec := smartconf.Spec{Name: "direct", Metric: "memory", Goal: 100, Max: 1000}
	var c *smartconf.Conf
	c, err = smartconf.New(spec, profile, opts...)
	must(err)
	spec.Name = "indirect"
	var ic *smartconf.IndirectConf
	ic, err = smartconf.NewIndirect(spec, smartconf.NewProfile().Add(10, 10, 10).Add(20, 20, 20).Add(30, 30, 30),
		smartconf.Scale(1), opts...)
	must(err)

	mopts := []smartconf.ManagerOption{
		smartconf.WithProfileSource(func(string) (*smartconf.Profile, error) { return profile, nil }),
		smartconf.WithConfOptions(opts...),
	}
	var m *smartconf.Manager
	m, err = smartconf.NewManager(strings.NewReader(sys), strings.NewReader(goals), mopts...)
	must(err)
	var t smartconf.Transducer = smartconf.TransducerFunc(func(d float64) float64 { return d })
	mc, err := m.IndirectConf("queue.limit", t)
	must(err)
	if _, err := smartconf.NewManagerFromFiles("missing.sys", "missing.goals", smartconf.WithProfileDir(".")); err == nil {
		panic("a Manager built from missing files")
	}
	_ = smartconf.Identity()

	c.SetPerf(40)
	c.Value()
	ic.SetPerf(40, 7)
	ic.Value()
	mc.SetPerf(40, 7)
	mc.Value()

	var snap smartconf.Snapshot = c.Snapshot()
	fmt.Printf("%s updates %d\n", snap.Name, snap.Updates)
	var decisions []smartconf.Decision = log.Snapshot()
	names := log.Sources()
	for _, d := range decisions {
		fmt.Printf("%s period %d sensed %g err %g applied %g clamp %v\n",
			names[d.Source], d.Period, d.Sensed, d.Err, d.Applied, d.Clamp)
	}
}
`

// heldProgram reaches for the decision log's held-lock forms. They must stay
// off DecisionLog's method set: a caller outside the configurations that
// held the log's mutex while calling a configuration sharing it would
// deadlock.
const heldProgram = `package main

import "smartconf"

func main() {
	l := smartconf.NewDecisionLog(1)
	l.Mutex().Lock()
	l.AppendLocked(smartconf.Decision{})
	l.BumpEpochLocked()
}
`

// TestPublicAPIFromAnotherModule builds and runs outsideProgram in a
// throwaway module that replaces smartconf with this checkout, offline,
// and requires heldProgram not to build there.
func TestPublicAPIFromAnotherModule(t *testing.T) {
	if testing.Short() {
		t.Skip("toolchain smoke test")
	}
	root := repoRoot(t)
	for _, name := range exportedNames(t, root) {
		if !regexp.MustCompile(`smartconf\.` + name + `\b`).MatchString(outsideProgram) {
			t.Errorf("outsideProgram does not use smartconf.%s: every exported name must be reachable from another module", name)
		}
	}

	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/outside\n\ngo 1.22\n\nrequire smartconf v0.0.0\n\nreplace smartconf => "+root+"\n")
	write("main.go", outsideProgram)
	write("held/main.go", heldProgram)
	goCmd := func(args ...string) (string, error) {
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOWORK=off", "GOTOOLCHAIN=local")
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	out, err := goCmd("run", ".")
	if err != nil {
		t.Fatalf("go run in the outside module: %v\n%s", err, out)
	}
	for _, want := range []string{
		"direct updates 1\n",
		"direct period 1 sensed 40 err 60 applied 60 clamp none\n",
		// The indirect update starts from the deputy, 7, not from the knob.
		"indirect period 1 sensed 40 err 60 applied 67 clamp none\n",
		"queue.limit period 1 sensed 40 err 60 applied 67 clamp none\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("outside program output lacks %q:\n%s", want, out)
		}
	}

	out, err = goCmd("build", "-o", filepath.Join(t.TempDir(), "held"), "./held")
	if err == nil {
		t.Fatal("a program outside the module reached the decision log's held-lock forms")
	}
	for _, m := range []string{"Mutex", "AppendLocked", "BumpEpochLocked"} {
		if !strings.Contains(out, "has no field or method "+m) {
			t.Errorf("building heldProgram: want %q rejected as no field or method, got:\n%s", m, out)
		}
	}
}

// exportedNames lists the exported top-level identifiers declared by the
// non-test files of the package in dir.
func exportedNames(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names = append(names, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	exported := names[:0]
	for _, n := range names {
		if ast.IsExported(n) {
			exported = append(exported, n)
		}
	}
	sort.Strings(exported)
	return exported
}

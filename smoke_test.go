package smartconf_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// Smoke tests that BUILD AND RUN every example and command, guarding the
// runnable surface of the repository (examples rot silently otherwise).
// They shell out to the Go toolchain, so they are skipped under -short.

func repoRoot(t *testing.T) string {
	t.Helper()
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate repository root")
	}
	return filepath.Dir(self)
}

func runMain(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", pkg}, args...)...)
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s: %v\n%s", pkg, err, out)
	}
	return string(out)
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("toolchain smoke test")
	}
	cases := []struct {
		pkg    string
		expect string
	}{
		{"./examples/quickstart", "heap stayed under"},
		{"./examples/rpcqueue", "ALERT"},
		{"./examples/kvstore", "no OOM, no restart"},
		{"./examples/multiconf", "never violated"},
		{"./examples/filebased", "no one ever picked a number"},
		{"./examples/adaptive", "re-learns"},
	}
	for _, c := range cases {
		c := c
		t.Run(filepath.Base(c.pkg), func(t *testing.T) {
			t.Parallel()
			out := runMain(t, c.pkg)
			if !strings.Contains(out, c.expect) {
				t.Errorf("%s output missing %q:\n%s", c.pkg, c.expect, out)
			}
			if strings.Contains(out, "!!!") {
				t.Errorf("%s reported a violation:\n%s", c.pkg, out)
			}
		})
	}
}

func TestCommandsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("toolchain smoke test")
	}
	t.Run("bench-list", func(t *testing.T) {
		t.Parallel()
		out := runMain(t, "./cmd/smartconf-bench", "-list")
		for _, id := range []string{"table2", "fig5", "fig8", "abl-adaptive", "robustness", "ext-dist"} {
			if !strings.Contains(out, id) {
				t.Errorf("-list missing %q:\n%s", id, out)
			}
		}
	})
	t.Run("bench-table2", func(t *testing.T) {
		t.Parallel()
		out := runMain(t, "./cmd/smartconf-bench", "-only", "table2")
		if !strings.Contains(out, "Total") || !strings.Contains(out, "80") {
			t.Errorf("table2 output:\n%s", out)
		}
	})
	t.Run("study", func(t *testing.T) {
		t.Parallel()
		out := runMain(t, "./cmd/smartconf-bench", "-only", "table5")
		if !strings.Contains(out, "Dynamic factors") {
			t.Errorf("study output:\n%s", out)
		}
	})
	// The study's HBASE-3813 is the benchmark suite's HB3813; Table 6 lists
	// it with the configuration it concerns.
	t.Run("study-issues", func(t *testing.T) {
		t.Parallel()
		out := runMain(t, "./cmd/smartconf-bench", "-only", "table6")
		if !strings.Contains(out, "HB3813") || !strings.Contains(out, "ipc.server.max.queue.size") {
			t.Errorf("issues output:\n%s", out)
		}
	})
	t.Run("profile", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		out := runMain(t, "./cmd/smartconf-profile", "-issue", "HB2149", "-out", dir)
		if !strings.Contains(out, "pole") {
			t.Errorf("profile output:\n%s", out)
		}
	})
}

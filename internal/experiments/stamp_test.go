package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"smartconf/internal/experiments/engine"
)

// runCacheDigests records, per GOARCH and ScenarioVersion, the SHA-256 of
// the persistent run cache that a cold render of every artifact fills. A
// cache directory only ever holds results stamped by ScenarioVersion, so a
// change that alters any run's result without bumping the stamp would let a
// cache filled before the change serve its old results as new ones. When a
// change alters results on purpose, bump ScenarioVersion and add its row.
var runCacheDigests = map[string]map[string]string{
	"amd64": {
		"smartconf-scenarios/1": "209a628f82a8aea64456975343aa1a0f6a88e9cde22923cd5c09bba2eeca1d66",
	},
}

// TestRunCacheStampPinsResults fails when the results behind a
// ScenarioVersion stamp change, naming the stamp and both digests.
func TestRunCacheStampPinsResults(t *testing.T) {
	rows, ok := runCacheDigests[runtime.GOARCH]
	if !ok {
		t.Skipf("no run-cache digests recorded for %s: results are not yet byte-identical across CPU architectures (fused multiply-adds, math.Exp), so one architecture's digest cannot pin another's", runtime.GOARCH)
	}
	want, ok := rows[ScenarioVersion]
	if !ok {
		want = "none"
	}
	prev := engine.Workers()
	defer func() {
		engine.SetWorkers(prev)
		EnablePersistentRunCache("")
		ResetRunCache()
	}()
	for _, workers := range []int{1, 8} {
		engine.SetWorkers(workers)
		if got := coldRunCacheDigest(t); got != want {
			t.Fatalf("at %d engine workers, a cold render of every artifact fills the run cache with digest %s, but stamp %q on %s records %s: a change that alters any run's result must bump ScenarioVersion and record the new digest in runCacheDigests",
				workers, got, ScenarioVersion, runtime.GOARCH, want)
		}
	}
}

// coldRunCacheDigest renders every artifact into a fresh persistent run
// cache and hashes the directory: each file's relative name and bytes, in
// name order.
func coldRunCacheDigest(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ResetRunCache()
	if err := EnablePersistentRunCache(dir); err != nil {
		t.Fatal(err)
	}
	for _, a := range Artifacts() {
		if _, err := a.Render(); err != nil {
			t.Fatalf("%s: %v", a.ID, err)
		}
	}
	EnablePersistentRunCache("")
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(rel) + "\x00" + strconv.Itoa(len(b)) + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

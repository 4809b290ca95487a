// Package examples holds no code of its own: this test builds the one
// example program, repository, and pins what it prints. Every other
// workload is a scenario suite under scenarios/; this one records a
// stream, re-segments the recording off-line and plays it back, which
// the scenario grammar does not describe.
package examples

import (
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// TestGolden runs the example and compares its output with
// testdata/repository.golden (recorded at commit 0bc3240).
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a binary")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	t.Run("repository", func(t *testing.T) {
		out, err := exec.Command(filepath.Join(bin, "repository")).CombinedOutput()
		if err != nil {
			t.Fatalf("repository: %v\n%s", err, out)
		}
		golden.Check(t, "testdata/repository.golden", string(out))
	})
}

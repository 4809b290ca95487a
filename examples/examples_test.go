// Package examples holds no code of its own: this test builds the five
// example programs once and pins what each prints.
package examples

import (
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// TestGolden runs every example and compares its output with
// testdata/NAME.golden (recorded at commit 0bc3240; conference after
// its destinations were put in member order instead of map order).
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs five binaries")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range []string{"conference", "quickstart", "repository", "tannoy", "videophone"} {
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
			golden.Check(t, filepath.Join("testdata", name+".golden"), string(out))
		})
	}
}

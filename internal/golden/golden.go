// Package golden compares what a test produced with a checked-in
// file. Every test binary that imports it gains one -update flag,
// which rewrites the files from the run instead of comparing.
package golden

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from this run instead of comparing")

// Check fails t if got differs from the file at path, naming the first
// line where they part.
func Check(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		gl, wl := "<end of output>", "<end of file>"
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("%s: line %d differs\n got:  %s\n want: %s", path, i+1, gl, wl)
			return
		}
	}
}

package experiment

import (
	"strings"
	"testing"

	"repro/internal/golden"
)

// TestTablesGolden pins every table cmd/pandora-bench prints: All()'s
// tables, a blank line after each, against testdata/tables.golden
// (recorded at commit 0bc3240). A change that moves a cell on purpose
// re-records the file with -update and says which cell and why.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 27 experiments")
	}
	var sb strings.Builder
	for _, e := range All() {
		sb.WriteString(e.Run().String())
		sb.WriteString("\n")
	}
	golden.Check(t, "testdata/tables.golden", sb.String())
}

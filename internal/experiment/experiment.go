// Package experiment regenerates every quantitative claim and figure
// of the paper's evaluation (§3.7.2, §4) plus the ablations listed in
// DESIGN.md. Each experiment is a pure function of its parameters on
// the deterministic virtual-time substrate, so every run prints the
// same numbers. cmd/pandora-bench prints all of them.
//
// Ownership: experiments observe, they do not hold. Any code here
// that sees a segment.Wire (delivery digests, fingerprints) reads its
// bytes during the delivery callback and keeps no reference — the
// wire's refcount is exactly as it would be in an uninstrumented run,
// which is what lets the leak checks in the package tests assert that
// every pool drains back to full.
package experiment

import (
	"fmt"
	"strings"

	"repro/internal/occam"
	"repro/internal/scenario"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Paper   string // the paper's claim, quoted or paraphrased
	Header  []string
	Rows    [][]string
	Remarks []string
}

// Add appends a row of cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Remark appends a free-form note under the table.
func (t *Table) Remark(format string, args ...any) {
	t.Remarks = append(t.Remarks, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&sb, "  paper: %s\n", t.Paper)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		sb.WriteString("  ")
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, r := range t.Remarks {
		fmt.Fprintf(&sb, "  note: %s\n", r)
	}
	return sb.String()
}

// Experiment names one table of the evaluation and the function that
// regenerates it.
type Experiment struct {
	ID  string
	Run func() *Table
}

// All lists every experiment in printing order — the one list
// cmd/pandora-bench prints and TestTablesGolden pins.
func All() []Experiment {
	return []Experiment{
		{"E1", E1},
		{"E2", E2},
		{"E3", E3},
		{"E4", E4},
		{"E5", func() *Table { t, _ := E5(); return t }},
		{"E6", E6},
		{"E7", E7},
		{"E8", func() *Table { t, _ := E8(); return t }},
		{"E9", E9},
		{"E10", E10},
		{"E11", E11},
		{"E12", E12},
		{"E13", E13},
		{"E14", E14},
		{"E15", E15},
		{"E16", E16},
		{"E17", E17},
		{"E18", E18},
		{"E19", E19},
		{"E20", E20},
		{"E21", func() *Table { t, _ := E21(); return t }},
		{"E22", func() *Table { t, _ := E22(); return t }},
		{"E23", func() *Table { t, _ := E23(); return t }},
		{"E24", func() *Table { t, _ := E24(); return t }},
		{"A1", A1},
		{"A2", A2},
		{"A3", A3},
	}
}

// startScenario compiles an embedded scenario spec and spawns its
// system without advancing time; then, when non-nil, runs in the
// timeline control process after the last event (measurement probes).
// Specs here are compiled-in constants, so errors panic.
func startScenario(text string, then func(p *occam.Proc)) *scenario.Runner {
	r, err := scenario.NewRunner(scenario.MustParse(text))
	if err != nil {
		panic(err)
	}
	r.Start(then)
	return r
}

// runScenario plays one embedded spec to its full duration.
func runScenario(text string) *scenario.Runner {
	r := startScenario(text, nil)
	if err := r.RunFor(r.Spec.Duration); err != nil {
		panic(err)
	}
	return r
}

// must unwraps a finished run's twin, summary or fingerprint: like the
// specs they come from, a failure there is a bug, so it panics.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func pct(num, den uint64) string {
	if den == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(num)/float64(den))
}

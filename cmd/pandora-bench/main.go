// Command pandora-bench regenerates every table and figure of the
// paper's evaluation (§3.7.2, §4) plus the ablations, printing each
// with the paper's claim alongside the measured values. All runs are
// deterministic. With -run, only experiments whose ID contains the
// given substring execute.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
)

func main() {
	run := flag.String("run", "", "only run experiments whose ID contains this substring")
	flag.Parse()

	type exp struct {
		id string
		fn func() *experiment.Table
	}
	experiments := []exp{
		{"E1", experiment.E1},
		{"E2", experiment.E2},
		{"E3", experiment.E3},
		{"E4", experiment.E4},
		{"E5", func() *experiment.Table { t, _ := experiment.E5(); return t }},
		{"E6", experiment.E6},
		{"E7", experiment.E7},
		{"E8", func() *experiment.Table { t, _ := experiment.E8(); return t }},
		{"E9", experiment.E9},
		{"E10", experiment.E10},
		{"E11", experiment.E11},
		{"E12", experiment.E12},
		{"E13", experiment.E13},
		{"E14", experiment.E14},
		{"E15", experiment.E15},
		{"E16", experiment.E16},
		{"E17", experiment.E17},
		{"E18", experiment.E18},
		{"E19", experiment.E19},
		{"E20", experiment.E20},
		{"E21", func() *experiment.Table { t, _ := experiment.E21(); return t }},
		{"E22", func() *experiment.Table { t, _ := experiment.E22(); return t }},
		{"E23", func() *experiment.Table { t, _ := experiment.E23(); return t }},
		{"E24", func() *experiment.Table { t, _ := experiment.E24(); return t }},
		{"A1", experiment.A1},
		{"A2", experiment.A2},
		{"A3", experiment.A3},
	}

	fmt.Println("Pandora reproduction — evaluation tables")
	fmt.Println("(Jones & Hopper, SOSP 1993; all numbers from the deterministic simulation)")
	fmt.Println()
	start := time.Now()
	ran := 0
	for _, e := range experiments {
		if *run != "" && !strings.Contains(e.id, *run) {
			continue
		}
		t0 := time.Now()
		tab := e.fn()
		wall := time.Since(t0)
		fmt.Print(tab)
		fmt.Printf("  (%.2fs wall)\n\n", wall.Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches -run=%q\n", *run)
		os.Exit(1)
	}
	fmt.Printf("%d experiments in %.1fs\n", ran, time.Since(start).Seconds())
}

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

	fmt.Println("Pandora reproduction — evaluation tables")
	fmt.Println("(Jones & Hopper, SOSP 1993; all numbers from the deterministic simulation)")
	fmt.Println()
	start := time.Now()
	ran := 0
	for _, e := range experiment.All() {
		if *run != "" && !strings.Contains(e.ID, *run) {
			continue
		}
		t0 := time.Now()
		tab := e.Run()
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

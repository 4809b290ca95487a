// Command bench is the Pandora benchmark: it generates one of four
// scenario workloads from a seed, runs it on the deterministic
// simulator at GOMAXPROCS=1, checks the outputs and prints every
// metric by name with its unit. See README.md in this directory.
//
//	go run ./bench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	go run ./bench -set OUT.json [-runs N] [-seed N] [-seconds S]
//	go run ./bench -compare A.json B.json
//	go run ./bench -ladder
//	go run ./bench -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: conference, videowall, fanout or churn")
		seed    = flag.Uint64("seed", 1, "workload seed (first seed of a set)")
		seconds = flag.Float64("seconds", nominalSeconds, "wall seconds the timed window is sized for")
		trace   = flag.Int("trace", 0, "1: traced run (spans, CPU profile) reporting the per-layer metrics")
		reportF = flag.String("report", "", "also write the run's full report to this file as JSON")
		setF    = flag.String("set", "", "run every workload -runs times and write the set to this file")
		runs    = flag.Int("runs", 5, "untraced runs per workload in a set, each with the next seed")
		compare = flag.Bool("compare", false, "compare two set files given as arguments")
		ladder  = flag.Bool("ladder", false, "time the leaf layers' public functions")
		smoke   = flag.Bool("smoke", false, "run every workload at 1/20 length and check steady state")
	)
	flag.Parse()
	// occam runs one process at a time; a second P only adds cross-core
	// wake-ups and noise (see README.md).
	runtime.GOMAXPROCS(1)

	ok, err := true, error(nil)
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(2, "-compare wants two set files")
		}
		ok, err = compareSets(flag.Arg(0), flag.Arg(1))
	case *setF != "":
		ok, err = runSet(*setF, *runs, *seed, *seconds)
	case *ladder:
		ok = runLadder()
	case *smoke:
		ok, err = runSmoke(*seed)
	default:
		w, found := findWorkload(*name)
		if !found {
			fail(2, fmt.Sprintf("unknown workload %q (want conference, videowall, fanout or churn)", *name))
		}
		var rep *report
		if rep, err = runOnce(w, *seed, *seconds, *trace == 1, true); err == nil {
			if *reportF != "" {
				data, _ := json.Marshal(rep)
				err = os.WriteFile(*reportF, data, 0o644)
			}
			// An incorrect run still prints its result line and exits 0:
			// the caller reads "correct": false from it.
			printReport(rep)
		}
	}
	if err != nil {
		fail(1, err.Error())
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(code int, msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(code)
}

// printReport prints every metric by name with its unit and, as the
// last line, the one-line JSON result: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func printReport(rep *report) {
	fmt.Printf("workload %s seed %d seconds %g traced %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	fmt.Printf("sim_digest %s%s\n", rep.SimDigest, rep.DigestNote)
	fmt.Printf("audio_latency_samples %d\n", rep.Samples)
	for _, n := range endToEnd {
		m := rep.EndToEnd[n]
		fmt.Printf("%-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	layer := make([]string, 0, len(rep.PerLayer))
	for n := range rep.PerLayer {
		layer = append(layer, n)
	}
	sort.Strings(layer)
	for _, n := range layer {
		m := rep.PerLayer[n]
		fmt.Printf("%-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, p := range rep.Problems {
		fmt.Println("PROBLEM:", p)
	}
	metrics := rep.EndToEnd
	if rep.Traced {
		metrics = rep.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil { // a NaN or infinite metric: no result line rather than a wrong one
		fail(1, err.Error())
	}
	fmt.Println(string(line))
}

// runSmoke runs every workload at 1/20 length in this process and
// checks that each is correct and in steady state, not overload.
func runSmoke(seed uint64) (bool, error) {
	ok := true
	for _, w := range workloads {
		rep, err := runOnce(w, seed, nominalSeconds/20.0, false, false)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		problems := rep.Problems
		// Steady state on every workload: no audio board behind its tick
		// (conference sits exactly at capacity), no switch dropping for age
		// or lack of room (videowall sits just under it).
		for _, n := range []string{"box.late_ticks", "box.switch_drops"} {
			if v := rep.PerLayer[n].Value; v != 0 {
				problems = append(problems, fmt.Sprintf("%s = %v, want 0", n, v))
			}
		}
		if rep.Failed != 0 {
			problems = append(problems, fmt.Sprintf("%d of %d segments failed", rep.Failed, rep.Attempted))
		}
		verdict := "ok"
		if !rep.Correct || len(problems) > 0 {
			verdict, ok = fmt.Sprint("FAILED: ", problems), false
		}
		fmt.Printf("%-10s %7d segments in %.2f s  digest %s  %s\n", w.name, rep.Attempted,
			rep.PerLayer["run.wall_s"].Value, rep.SimDigest, verdict)
	}
	return ok, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A set is several runs of every workload made by one command, each
// run in a process of its own: seeds seed..seed+runs-1 untraced, the
// first seed once more (bit-identical replay), and one traced run of
// the first seed. -compare reads two sets.

type set struct {
	Seconds float64   `json:"seconds"`
	Runs    []*report `json:"runs"`
}

// runSet makes a set and writes it to path. It reports whether every
// run was correct and every replay reproduced its digest.
func runSet(path string, runs int, seed uint64, seconds float64) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	s := set{Seconds: seconds}
	ok := true
	child := func(w workloadDef, seed uint64, traced bool) (*report, error) {
		tmp := filepath.Join(outDir, "run-report.json")
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", trace, "-report", tmp)
		cmd.Stderr = os.Stderr
		if _, err := cmd.Output(); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
		}
		data, err := os.ReadFile(tmp)
		if err != nil {
			return nil, err
		}
		rep := &report{}
		if err := json.Unmarshal(data, rep); err != nil {
			return nil, err
		}
		if !rep.Correct {
			ok = false
			fmt.Printf("  INCORRECT: %s\n", strings.Join(rep.Problems, "; "))
		}
		s.Runs = append(s.Runs, rep)
		return rep, nil
	}
	for _, w := range workloads {
		var first *report
		var rate, raw []float64
		for i := 0; i < runs; i++ {
			rep, err := child(w, seed+uint64(i), false)
			if err != nil {
				return false, err
			}
			if i == 0 {
				first = rep
			}
			rate = append(rate, rep.EndToEnd["segments_per_cal_s"].Value)
			raw = append(raw, rep.PerLayer["run.segments_per_wall_s"].Value)
			fmt.Printf("%-10s seed %-3d %9.0f segments/s  setup %.3f s  digest %s\n", w.name, rep.Seed,
				rep.EndToEnd["segments_per_cal_s"].Value, rep.EndToEnd["setup_s"].Value, rep.SimDigest)
		}
		for _, traced := range []bool{false, true} {
			rep, err := child(w, seed, traced)
			if err != nil {
				return false, err
			}
			kind := "replay"
			if traced {
				kind = "traced"
				// The profiler's signals slow the probe too, so the calibrated
				// overhead reads low; the raw one carries the machine's noise.
				tracedRate := rep.EndToEnd["segments_per_cal_s"].Value
				fmt.Printf("%-10s trace_overhead_pct %.1f %% calibrated (traced %.0f against untraced median %.0f segments/s), %.1f %% raw wall\n",
					w.name, 100*(median(rate)-tracedRate)/median(rate), tracedRate, median(rate),
					100*(median(raw)-rep.PerLayer["run.segments_per_wall_s"].Value)/median(raw))
			}
			if rep.SimDigest != first.SimDigest {
				ok = false
				fmt.Printf("%-10s %s of seed %d gave digest %s, first run %s: NOT bit-identical\n",
					w.name, kind, seed, rep.SimDigest, first.SimDigest)
			} else {
				fmt.Printf("%-10s %s of seed %d reproduced digest %s\n", w.name, kind, seed, rep.SimDigest)
			}
		}
	}
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return false, err
	}
	return ok, os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchmarkJSON is the part of BENCHMARK.json -compare needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the acceptance rule for this benchmark is written in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// compareSets prints, per workload and end-to-end metric, both
// medians, both quartile spreads and whether B is within the bound of
// A. It reports whether every pair agrees.
func compareSets(pathA, pathB string) (bool, error) {
	var bj benchmarkJSON
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("bounds come from BENCHMARK.json: %w", err)
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		return false, err
	}
	load := func(path string) (*set, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		s := &set{}
		return s, json.Unmarshal(data, s)
	}
	a, err := load(pathA)
	if err != nil {
		return false, err
	}
	b, err := load(pathB)
	if err != nil {
		return false, err
	}
	values := func(s *set, workload, name string) []float64 {
		var v []float64
		for _, r := range s.Runs {
			if r.Workload == workload && !r.Traced {
				v = append(v, r.EndToEnd[name].Value)
			}
		}
		return v
	}
	ok := true
	fmt.Printf("%-10s %-22s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "iqr A", "iqr B", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range bj.EndToEnd {
			va, vb := values(a, w.name, m.Name), values(b, w.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				ok = false
				fmt.Printf("%-10s %-22s missing from a set\n", w.name, m.Name)
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			// The rule the benchmark is accepted by: B's median no worse
			// than A's by more than the bound, and (set-up time aside) each
			// set's own quartile spread inside the bound.
			verdict := "agree"
			switch {
			case worse > m.Bound:
				verdict, ok = fmt.Sprintf("B WORSE by %.1f %%", 100*worse), false
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict, ok = "unresolved: spread wider than the bound", false
			case -worse > m.Bound:
				verdict = fmt.Sprintf("B better by %.1f %%", -100*worse)
			}
			fmt.Printf("%-10s %-22s %12.4f %12.4f %7.2f%% %7.2f%% %6.1f%%  %s\n",
				w.name, m.Name, ma, mb, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	// Simulated results of the same (workload, seed, seconds) must be identical.
	digests := map[string]string{}
	for _, r := range a.Runs {
		digests[fmt.Sprintf("%s/%d/%g", r.Workload, r.Seed, r.Seconds)] = r.SimDigest
	}
	same, diff := 0, 0
	for _, r := range b.Runs {
		if d, found := digests[fmt.Sprintf("%s/%d/%g", r.Workload, r.Seed, r.Seconds)]; found {
			if d == r.SimDigest {
				same++
			} else {
				diff++
				fmt.Printf("sim_digest differs: %s seed %d: %s against %s\n", r.Workload, r.Seed, d, r.SimDigest)
			}
		}
	}
	fmt.Printf("sim_digest: %d runs with a twin in the other set identical, %d different\n", same, diff)
	return ok && diff == 0, nil
}

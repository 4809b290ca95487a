package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/scenario"
)

// The benchmark writes under bench/out and reads BENCHMARK.json
// relative to the repository root, where its command runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		win := w.scaled(nominalSeconds)
		a, ctlA := generate(w, 7, win)
		b, ctlB := generate(w, 7, win)
		if a != b || ctlA != ctlB {
			t.Errorf("%s: seed 7 generated two different scenarios", w.name)
		}
		if c, _ := generate(w, 8, win); c == a {
			t.Errorf("%s: seeds 7 and 8 generated the same scenario", w.name)
		}
	}
}

func TestGeneratedScenariosParseAndRoundTrip(t *testing.T) {
	for _, w := range workloads {
		for _, seconds := range []float64{nominalSeconds, nominalSeconds / 20.0} {
			for seed := uint64(1); seed <= 5; seed++ {
				text, _ := generate(w, seed, w.scaled(seconds))
				sc, err := scenario.Parse(text)
				if err != nil {
					t.Fatalf("%s seed %d: %v", w.name, seed, err)
				}
				if err := sc.Validate(); err != nil {
					t.Fatalf("%s seed %d: %v", w.name, seed, err)
				}
				printed := sc.Format()
				again, err := scenario.Parse(printed)
				if err != nil {
					t.Fatalf("%s seed %d: printed form does not parse: %v", w.name, seed, err)
				}
				if again.Format() != printed {
					t.Errorf("%s seed %d: Format(Parse(Format(sc))) differs from Format(sc)", w.name, seed)
				}
			}
		}
	}
}

func TestChurnKeepsItsEventRate(t *testing.T) {
	w, _ := findWorkload("churn")
	win := w.scaled(nominalSeconds)
	_, ctl := generate(w, 1, win)
	if perSecond := float64(ctl) / win.Seconds(); perSecond < 100 {
		t.Errorf("churn schedules %.0f route changes per virtual second in the window, want at least 100", perSecond)
	}
}

// Python: statistics.quantiles(v, n=4) gives these first and third quartiles.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// BENCHMARK.json must name exactly what a run reports.
func TestBenchmarkJSONMatchesWhatARunReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload")
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds is %d, the workloads are sized for %d", bj.RunSeconds, nominalSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the generator has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the generator %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	w, _ := findWorkload("conference")
	rep, err := runOnce(w, 1, nominalSeconds/20.0, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("traced run incorrect: %v", rep.Problems)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, got map[string]metric) {
		want := map[string]string{}
		for _, m := range listed {
			want[m.Name] = m.Unit
		}
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if unit, ok := want[n]; !ok {
				t.Errorf("%s metric %s is reported but not in BENCHMARK.json", kind, n)
			} else if unit != got[n].Unit {
				t.Errorf("%s metric %s: unit %q reported, %q in BENCHMARK.json", kind, n, got[n].Unit, unit)
			}
			if v := got[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s metric %s is %v", kind, n, v)
			}
			delete(want, n)
		}
		for n := range want {
			t.Errorf("%s metric %s is in BENCHMARK.json but not reported", kind, n)
		}
	}
	check("end-to-end", bj.EndToEnd, rep.EndToEnd)
	check("per-layer", bj.PerLayer, rep.PerLayer)
	if _, err := os.Stat(filepath.Join(outDir, "trace-conference.json")); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	ok, err := runSmoke(1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("a workload failed its smoke run (see output)")
	}
}

func TestSameSeedReplaysBitIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload twice")
	}
	w, _ := findWorkload("churn")
	a, err := runOnce(w, 3, nominalSeconds/20.0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOnce(w, 3, nominalSeconds/20.0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimDigest != b.SimDigest {
		t.Errorf("two runs of churn seed 3 gave digests %s and %s", a.SimDigest, b.SimDigest)
	}
	for _, n := range []string{"audio_latency_mean_ms", "audio_latency_p99_ms", "audio_continuity_pct", "delivered_pct"} {
		if a.EndToEnd[n] != b.EndToEnd[n] {
			t.Errorf("%s differs between two runs of one seed: %v and %v", n, a.EndToEnd[n], b.EndToEnd[n])
		}
	}
}

func TestCompareFlagsAWorseMedianAndAWideSpread(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rates []float64) string {
		s := set{Seconds: 1}
		for _, w := range workloads {
			for i, r := range rates {
				e := map[string]metric{}
				for _, n := range endToEnd {
					e[n] = metric{100, "x"}
				}
				e["segments_per_cal_s"] = metric{r, "1/s"}
				s.Runs = append(s.Runs, &report{Workload: w.name, Seed: uint64(i), Seconds: 1, SimDigest: "d", EndToEnd: e})
			}
		}
		data, _ := json.Marshal(s)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{1000, 1001, 1002, 1003, 1004})
	same := write("b.json", []float64{1001, 1002, 1003, 1004, 1005})
	slow := write("c.json", []float64{800, 801, 802, 803, 804})
	wide := write("d.json", []float64{700, 850, 1000, 1150, 1300})
	for _, c := range []struct {
		path string
		want bool
	}{{same, true}, {slow, false}, {wide, false}} {
		got, err := compareSets(base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("compare a.json %s = %v, want %v", filepath.Base(c.path), got, c.want)
		}
	}
}

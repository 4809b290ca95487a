package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// outDir receives the generated .scn files, traces and profiles.
const outDir = "bench/out"

// A run repeats the set-up after the timed window and reports the
// median as setup_s: minSetups times in all, and on while the repeats
// have taken less than setupBudget (a 30 ms set-up needs more repeats
// than a 1 s one to read steadily), up to maxSetups.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured.
type report struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	SimDigest string  `json:"sim_digest"`
	// DigestNote says how SimDigest compares with the recorded one.
	DigestNote string            `json:"-"`
	Samples    uint64            `json:"audio_latency_samples"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer"`
	Problems   []string          `json:"problems,omitempty"`
}

// totals is an obs snapshot folded over label sets: one sum per
// family, one merged histogram for the playout latency.
type totals struct {
	sum     map[string]float64
	max     map[string]float64
	lat     obs.Sample // merged audio_playout_latency_ms
	samples int
}

func fold(s obs.Snapshot) totals {
	t := totals{sum: map[string]float64{}, max: map[string]float64{}, samples: len(s.Samples)}
	for _, sm := range s.Samples {
		if sm.Kind == obs.KindHistogram {
			if sm.Name == "audio_playout_latency_ms" {
				if t.lat.Buckets == nil {
					t.lat.Bounds = sm.Bounds
					t.lat.Buckets = make([]uint64, len(sm.Buckets))
				}
				t.lat.Count += sm.Count
				t.lat.Sum += sm.Sum
				for i, c := range sm.Buckets {
					t.lat.Buckets[i] += c
				}
			}
			continue
		}
		t.sum[sm.Name] += sm.Value
		for _, l := range sm.Labels {
			if l.Key == "media" { // degrade_shed_total splits by media
				t.sum[sm.Name+"/"+l.Value] += sm.Value
			}
		}
		if sm.Value > t.max[sm.Name] {
			t.max[sm.Name] = sm.Value
		}
	}
	return t
}

// window is the difference of two folded snapshots: counter increase
// over the timed window, gauges at its end.
type window struct{ before, after totals }

func (w window) count(name string) float64 { return w.after.sum[name] - w.before.sum[name] }

// sumSuffix adds up the increase of every family whose name ends in
// suffix (e.g. every *_drops_total).
func (w window) sumSuffix(suffix string) float64 {
	var n float64
	for name := range w.after.sum {
		if strings.HasSuffix(name, suffix) {
			n += w.count(name)
		}
	}
	return n
}

// latency returns the playout-latency histogram of the window.
func (w window) latency() (count uint64, mean, p99 float64) {
	a, b := w.after.lat, w.before.lat
	count = a.Count - b.Count
	if count == 0 {
		return 0, 0, 0
	}
	mean = (a.Sum - b.Sum) / float64(count)
	buckets := make([]uint64, len(a.Buckets))
	for i := range buckets {
		buckets[i] = a.Buckets[i]
		if i < len(b.Buckets) {
			buckets[i] -= b.Buckets[i]
		}
	}
	// The 99th percentile, interpolated linearly inside its bucket (the
	// overflow bucket reports the last bound).
	rank := 0.99 * float64(count)
	var cum float64
	for i, c := range buckets {
		if cum+float64(c) < rank || c == 0 {
			cum += float64(c)
			continue
		}
		if i >= len(a.Bounds) {
			return count, mean, a.Bounds[len(a.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = a.Bounds[i-1]
		}
		return count, mean, lo + (a.Bounds[i]-lo)*(rank-cum)/float64(c)
	}
	return count, mean, a.Bounds[len(a.Bounds)-1]
}

// digestFamilies are the obs families whose end-of-run samples make
// up sim_digest: everything a sink played or a switching stage moved,
// plus the control plane's decisions.
func inDigest(name string) bool {
	switch {
	case strings.HasPrefix(name, "mixer_"), strings.HasPrefix(name, "display_"), strings.HasPrefix(name, "balancer_"):
		return true
	case strings.HasPrefix(name, "clawback_") && strings.HasSuffix(name, "_total"):
		return true
	}
	switch name {
	case "switch_switched_total", "fabric_port_forwarded_total", "atm_link_forwarded_total", "degrade_shed_total":
		return true
	}
	return false
}

// simDigest is an FNV-1a over the (already sorted) samples of the
// digest families. Two runs of one (workload, seed, seconds) must agree.
func simDigest(s obs.Snapshot) string {
	h := fnv.New64a()
	for _, sm := range s.Samples {
		if !inDigest(sm.Name) {
			continue
		}
		fmt.Fprintf(h, "%s=%v\n", sm.ID(), sm.Value)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// setup is one complete set-up: generate the scenario text, parse it,
// build the system and run the warm-up. It returns the started runner.
func setup(w workloadDef, seed uint64, win time.Duration, tr *tracer) (r *scenario.Runner, text string, ctl int, err error) {
	sp := tr.begin("generate")
	text, ctl = generate(w, seed, win)
	sp.end()

	sp = tr.begin("parse")
	sc, err := scenario.Parse(text)
	sp.end()
	if err != nil {
		return nil, text, ctl, err
	}

	sp = tr.begin("build")
	r, err = scenario.NewRunner(sc)
	if err == nil {
		r.Start(nil)
	}
	sp.end()
	if err != nil {
		return nil, text, ctl, err
	}

	sp = tr.begin("warmup")
	err = r.RunFor(w.warmup)
	sp.end()
	if err != nil {
		r.Close()
		return nil, text, ctl, err
	}
	return r, text, ctl, nil
}

// subWindows is how many equal slices of virtual time the timed
// window is run in. Each is timed on its own, with a probe either
// side, so that a burst of interference spoils a few sub-windows
// instead of the whole run.
const subWindows = 100

// liveMB is what the process holds after a collection: live heap plus
// goroutine stacks.
func liveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc+m.StackInuse) / (1 << 20)
}

// runOnce performs one run of one workload: set-up, the timed window,
// then the snapshot, the asserts and (with repeatSetup) more set-ups
// outside it.
func runOnce(w workloadDef, seed uint64, seconds float64, traced, repeatSetup bool) (*report, error) {
	win := w.scaled(seconds)
	tr := newTracer(traced)
	rep := &report{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	pr := newProbe()
	defer pr.stop()
	baseMB := liveMB()

	// timedSetup is one set-up in calibrated seconds.
	timedSetup := func(tr *tracer) (*scenario.Runner, string, int, float64, error) {
		c := calibrated{before: pr.slowdown()}
		t0 := time.Now()
		r, text, ctl, err := setup(w, seed, win, tr)
		c.wall = time.Since(t0).Seconds()
		c.after = pr.slowdown()
		return r, text, ctl, c.seconds(), err
	}

	root := tr.begin("setup")
	r, text, ctl, setupS, err := timedSetup(tr)
	root.end()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{setupS}
	defer r.Close() // harmless after the timed Close below
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-%d.scn", w.name, seed)), []byte(text), 0o644); err != nil {
		return nil, err
	}

	sp := tr.begin("snapshot")
	before := fold(r.Sys.Obs.Snapshot())
	sp.end()

	var prof *os.File
	if traced {
		prof, err = os.Create(filepath.Join(outDir, "cpu-"+w.name+".pprof"))
		if err != nil {
			return nil, err
		}
		defer prof.Close()
	}

	// The timed window: nothing but RunFor and the probe happens inside
	// it. Obs.Snapshot costs seconds on a large system and stays outside.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sw0 := r.Sys.RT.Switches()
	run := tr.begin("run")
	if traced {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	slices := make([]calibrated, 0, subWindows)
	slow := pr.slowdown()
	for i := 0; i < subWindows && err == nil; i++ {
		// Sub-window i ends at win*(i+1)/subWindows, so the lengths add
		// up to win exactly.
		d := win*time.Duration(i+1)/subWindows - win*time.Duration(i)/subWindows
		s := tr.begin("run.slice")
		prev := r.Sys.RT.Switches()
		t0 := time.Now()
		err = r.RunFor(d)
		c := calibrated{wall: time.Since(t0).Seconds(), before: slow}
		s.count = r.Sys.RT.Switches() - prev
		s.end()
		slow = pr.slowdown()
		c.after = slow
		// Scale to the nominal sub-window length (they differ by rounding).
		c.wall *= float64(win) / subWindows / float64(d)
		slices = append(slices, c)
	}
	wall := time.Since(start).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	run.end()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("timed window: %w", err)
	}
	memMB := liveMB() - baseMB
	switches := r.Sys.RT.Switches() - sw0
	procs, boxes := r.Sys.RT.NumProcs(), len(r.Spec.Boxes)

	sp = tr.begin("snapshot")
	t0 := time.Now()
	snap := r.Sys.Obs.Snapshot()
	snapshotS := time.Since(t0).Seconds()
	sp.end()
	wd := window{before: before, after: fold(snap)}
	rep.SimDigest = simDigest(snap)
	if seed == 1 && seconds == nominalSeconds {
		// Flagged, not fatal: a change meant to alter simulated behaviour
		// moves the digest and records the new one in gen.go.
		rep.DigestNote = " (matches the recorded digest)"
		if rep.SimDigest != w.digest {
			rep.DigestNote = " (DIFFERS from the recorded " + w.digest + ": simulated behaviour changed)"
		}
	}

	sp = tr.begin("evaluate")
	t0 = time.Now()
	sum, err := r.Evaluate()
	evaluateS := time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("evaluate: %w", err)
	}

	sp = tr.begin("close")
	t0 = time.Now()
	r.Close()
	closeS := time.Since(t0).Seconds()
	sp.end()

	// Set-up again, outside the window, for a steadier setup_s; the last
	// repeat's spans give the per-stage split.
	var stage map[string]float64
	again := time.Now()
	for repeatSetup && (len(setups) < minSetups || len(setups) < maxSetups && time.Since(again) < setupBudget) {
		st := newTracer(true)
		r2, _, _, s, err := timedSetup(st)
		if err != nil {
			return nil, fmt.Errorf("repeated set-up: %w", err)
		}
		r2.Close()
		setups = append(setups, s)
		stage = st.durations()
	}

	rep.Correct = sum.Pass
	if !sum.Pass {
		for _, l := range sum.Lines {
			if strings.HasPrefix(l, "FAIL") {
				rep.Problems = append(rep.Problems, "assert "+l)
			}
		}
	}
	var paces, slows []float64
	for _, c := range slices {
		paces = append(paces, c.seconds())
		slows = append(slows, c.after)
	}
	fillMetrics(rep, wd, runStats{
		// The window in calibrated seconds, at the pace of its quiet quarter.
		calS: subWindows * lowerQuartile(paces), wall: wall, probeSlowdown: median(slows),
		virtual: win.Seconds(), setups: setups,
		mallocs: m1.Mallocs - m0.Mallocs, sysMB: float64(m1.Sys) / (1 << 20), liveMB: memMB,
		numGC: m1.NumGC - m0.NumGC, gcPauseMs: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		switches: switches, procs: procs, ctlEvents: ctl, boxes: boxes,
		snapshotS: snapshotS, evaluateS: evaluateS, closeS: closeS, stage: stage,
	})

	if traced {
		shares, err := cpuShares(prof.Name())
		if err != nil {
			rep.Problems = append(rep.Problems, "cpu profile: "+err.Error())
			rep.Correct = false
		}
		for _, l := range shareLayers {
			rep.PerLayer[l+".cpu_share"] = metric{shares[l], "%"}
		}
		if err := tr.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

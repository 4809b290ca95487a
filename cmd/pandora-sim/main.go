// Command pandora-sim runs a configurable multi-box Pandora
// simulation: N boxes in a full-mesh audio conference, optionally
// with video between the first pair, over links of a chosen
// bandwidth, and prints per-box stream statistics — the quickest way
// to poke at the system's behaviour under different loads.
//
// Usage:
//
//	pandora-sim -boxes 4 -seconds 10 -bandwidth 100000000 -video
//	pandora-sim -faults loss,crash -degrade -trace 40
//	pandora-sim -boxes 8 -fabric -faults 'stall,target=fab.p01' -degrade
//	pandora-sim -boxes 6 -fabric -balance -balance-budget 1
//
// With -scenario the flags above are ignored: the named file is a
// declarative scenario spec (see internal/scenario) describing boxes,
// links, fabrics, the call timeline, fault and degradation phases, and
// assertions. The run prints each assertion's outcome and exits
// non-zero if any fails:
//
//	pandora-sim -scenario scenarios/churn.scn
//
// Either kind of run can be profiled: -cpuprofile FILE samples the
// simulation alone, from after the system is built to before the
// results print, and -memprofile FILE writes the heap as the run
// leaves it. The heap profile is exact: with -memprofile set, every
// allocation from the system's build on is recorded
// (runtime.MemProfileRate = 1, restored once the profile is written),
// so each live byte is credited to the code that allocated it rather
// than to one sample per 512 KiB. Neither flag changes a byte of the
// output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/atm"
	"repro/internal/scenario"
)

// profiled runs fn under the profiles asked for: CPU samples of fn
// alone into cpuPath, then the heap as fn left it into memPath. An
// empty path asks for nothing.
func profiled(cpuPath, memPath string, fn func() error) error {
	stop := func() error { return nil }
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		stop = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	err := fn()
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil || memPath == "" {
		return err
	}
	f, err := os.Create(memPath)
	if err != nil {
		return err
	}
	runtime.GC() // a heap profile is as of the last collection
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exactHeap makes the heap profile asked for by memPath exact: until
// the returned func runs, every allocation is recorded, not one per
// 512 KiB. Call it before the system is built. With no path it changes
// nothing.
func exactHeap(memPath string) (restore func()) {
	if memPath == "" {
		return func() {}
	}
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	return func() { runtime.MemProfileRate = old }
}

// runScenarioFile executes one scenario spec file and prints its
// assertion summary — the text scenarios/golden/ pins, so it contains
// nothing wall-clock dependent.
func runScenarioFile(path, cpuProfile, memProfile string, stdout, stderr io.Writer) int {
	sc, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	r, err := scenario.NewRunner(sc)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer r.Close()
	defer exactHeap(memProfile)()
	r.Start(nil)
	var sum *scenario.Summary
	err = profiled(cpuProfile, memProfile, func() (err error) {
		if err = r.RunFor(sc.Duration); err == nil {
			sum, err = r.Evaluate()
		}
		return err
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprint(stdout, sum.String())
	if len(r.Refused) > 0 {
		fmt.Fprintf(stdout, "scenario %s: %d events refused by their stream's plan\n", sc.Name, len(r.Refused))
		for _, err := range r.Refused {
			fmt.Fprintf(stdout, "  %v\n", err)
		}
	}
	if !sum.Pass {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams as parameters, so the
// golden test can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pandora-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	boxes := fs.Int("boxes", 3, "number of boxes in the conference")
	seconds := fs.Int("seconds", 5, "virtual seconds to simulate (0 or more)")
	bandwidth := fs.Int64("bandwidth", 100_000_000, "link bandwidth, bits/s")
	loss := fs.Float64("loss", 0, "link loss rate (0..1)")
	withVideo := fs.Bool("video", false, "also send video between the first two boxes")
	muting := fs.Bool("muting", false, "enable echo muting on every box")
	stats := fs.Bool("stats", false, "print the full observability counter table")
	prom := fs.Bool("prom", false, "print counters in Prometheus text format")
	traceN := fs.Int("trace", 0, "print the last N trace events")
	faults := fs.String("faults", "", "inject faults: comma list of loss, corrupt, dup, jitter, stall, sink, crash, all; add target=<prefix> to restrict link faults to matching links or fabric ports")
	faultSeed := fs.Uint64("fault-seed", 1, "master seed for the injected fault schedules")
	degradeOn := fs.Bool("degrade", false, "run the overload degradation controller on every box (and fabric port with -fabric)")
	balanceOn := fs.Bool("balance", false, "run the balancer control plane: scoreboard sampling, load-aware placement, admission, migration; prints a post-run placement summary")
	balanceBudget := fs.Int("balance-budget", 0, "with -balance: max concurrently admitted calls (0 = unlimited)")
	fabricOn := fs.Bool("fabric", false, "mesh the conference through one cell-switched fabric instead of pairwise links")
	scenarioPath := fs.String("scenario", "", "run a declarative scenario spec file instead of the flag-built conference")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the simulation (set-up and printing excluded) to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile, taken as the simulation ends, to this file; every allocation from the build on is recorded (MemProfileRate 1), so the profile is exact and the run slower")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scenarioPath != "" {
		return runScenarioFile(*scenarioPath, *cpuProfile, *memProfile, stdout, stderr)
	}
	if *boxes < 2 {
		fmt.Fprintln(stderr, "need at least 2 boxes")
		return 1
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "need a -seconds of 0 or more")
		return 1
	}
	if *fabricOn && *loss != 0 {
		fmt.Fprintln(stderr, "-loss sets the loss of pairwise links, and -fabric has none")
		return 1
	}
	// A bad -faults token is a usage error reported in the fault
	// list's own words, before any scenario exists to name.
	if _, err := scenario.ParseFaults(*faults, *faultSeed); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// The flags describe a scenario like any spec file does: N boxes in
	// one conference over a full mesh of links or one fabric.
	length := time.Duration(*seconds) * time.Second
	sc := &scenario.Scenario{
		Name: "sim",
		// Validate wants a positive length; -seconds 0 (build the system,
		// snapshot at t+0) stays a usable probe because RunFor below takes
		// the flag's value, not this field.
		Duration: max(length, time.Nanosecond),
		Faults:   *faults,
		Seed:     *faultSeed,
	}
	names := make([]string, *boxes)
	for i := range names {
		names[i] = fmt.Sprintf("box%d", i)
		sc.Boxes = append(sc.Boxes, scenario.Box{
			Name:   names[i],
			Mic:    &scenario.Mic{Kind: "speech", A: uint64(i + 1), B: 12000},
			Jitter: true,
			Muting: *muting,
		})
	}
	if *fabricOn {
		sc.Fabrics = []scenario.Fabric{{Name: "fab", PortBandwidth: *bandwidth, Attach: names}}
	} else {
		for i := range names {
			for j := i + 1; j < len(names); j++ {
				sc.Links = append(sc.Links, scenario.Link{From: names[i], To: names[j], Hops: []scenario.Hop{{
					Bandwidth: *bandwidth,
					Loss:      *loss,
					Seed:      uint64(i*100 + j),
				}}})
			}
		}
	}
	if *degradeOn {
		sc.Degrade = &scenario.Degrade{}
	}
	if *balanceOn {
		sc.Balance = &scenario.Balance{Budget: *balanceBudget}
	}
	sc.Events = []scenario.Event{{Op: "conference", From: names[0], To: names[1:], Ref: "conf"}}
	if *withVideo {
		sc.Events = append(sc.Events, scenario.Event{
			Op: "video", From: names[0], To: names[1:2],
			W: 128, H: 64, RateNum: 2, RateDen: 5,
		})
	}
	r, err := scenario.NewRunner(sc)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer r.Close()
	defer exactHeap(*memProfile)()
	r.Start(nil)
	s := r.Sys
	fab := s.Fabric("fab") // nil without -fabric

	fmt.Fprintf(stdout, "simulating %d boxes for %ds of stream time...\n", *boxes, *seconds)
	wall := time.Now()
	if err := profiled(*cpuProfile, *memProfile, func() error { return r.RunFor(length) }); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "done in %.2fs wall (%.0fx faster than real time)\n\n",
		time.Since(wall).Seconds(), float64(*seconds)/time.Since(wall).Seconds())

	for i := range names {
		st, ok := r.Streams[fmt.Sprintf("conf[%d]", i)]
		if !ok {
			break // -seconds 0: the timeline has not run
		}
		for _, dst := range st.Dsts() {
			vci := st.VCIs[dst]
			m := s.Box(dst).Mixer().Stats(vci)
			lat := s.Box(dst).PlayoutLatency(vci)
			fmt.Fprintf(stdout, "%s → %s: %6d segs, lost %4d, concealed %4d, silences %4d, latency mean %6.2fms p99 %6.2fms\n",
				st.From, dst, m.Segments, m.LostSegments, m.Concealed,
				m.Clawback.SilenceInserted,
				float64(lat.Mean())/1e6, float64(lat.Percentile(99))/1e6)
		}
	}
	if *withVideo {
		d := s.Box(names[1]).DisplayStats()
		fmt.Fprintf(stdout, "video %s → %s: %d frames, %d decode errors, frame latency mean %v\n",
			names[0], names[1], d.Frames, d.DecodeErrs, d.FrameLat.Mean())
	}
	for _, n := range names {
		a := s.Box(n).AudioStats()
		if a.LateTicks > 0 || a.MicDrops > 0 {
			fmt.Fprintf(stdout, "%s overloaded: %d late ticks, %d mic drops\n", n, a.LateTicks, a.MicDrops)
		}
	}

	if r.FaultSpec.Active() {
		fmt.Fprintln(stdout)
		var total atm.FaultStats
		for _, l := range s.Net.Links() {
			total.Add(l.FaultStats())
		}
		if fab != nil {
			total.Add(fab.Stats().Fault)
		}
		fmt.Fprintf(stdout, "injected link faults: drop %d, corrupt %d, dup %d, delay %d, stall %d\n",
			total.Drops, total.Corruptions, total.Duplicates, total.Delays, total.Stalls)
		for _, n := range names {
			sw := s.Box(n).SwitchStats()
			if sw.CorruptDrops > 0 {
				fmt.Fprintf(stdout, "%s discarded %d corrupt segments at reassembly\n", n, sw.CorruptDrops)
			}
		}
	}
	if *degradeOn {
		for _, n := range names {
			acts := r.Ctrls[n].Actions()
			if len(acts) == 0 {
				continue
			}
			sw := s.Box(n).SwitchStats()
			fmt.Fprintf(stdout, "\n%s degradation (%d segments stopped at the switch):\n", n, sw.ShedDrops)
			for _, act := range acts {
				fmt.Fprintf(stdout, "  %s\n", act)
			}
		}
		if fab != nil {
			for _, pt := range fab.Ports() {
				acts := r.Ctrls[pt.Name()].Actions()
				if len(acts) == 0 {
					continue
				}
				fmt.Fprintf(stdout, "\n%s degradation (%d messages shed at the port):\n", pt.Name(), pt.Stats().ShedDrops)
				for _, act := range acts {
					fmt.Fprintf(stdout, "  %s\n", act)
				}
			}
		}
	}

	if bal := r.Bal; bal != nil {
		fmt.Fprintln(stdout, "\nbalancer placement summary:")
		fmt.Fprintf(stdout, "  admission: %d admitted, %d rejected (budget %d)\n",
			bal.Admitted(), bal.Rejected(), *balanceBudget)
		for _, sc := range bal.Scores() {
			if sc.Eff == 0 && sc.Placements == 0 {
				continue
			}
			fmt.Fprintf(stdout, "  %s: score %.3f (raw %.3f, queue %.0f%%), %d placements\n",
				sc.Name, sc.Eff, sc.Raw, 100*sc.Queue, sc.Placements)
		}
		for _, m := range bal.Migrations() {
			fmt.Fprintf(stdout, "  %s\n", m)
		}
	}

	if *stats {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, s.Obs.Snapshot().Table())
	}
	if *prom {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, s.Obs.Snapshot().Prometheus())
	}
	if *traceN > 0 {
		evs := s.Obs.Tracer().Events()
		if dropped := s.Obs.Tracer().Total() - uint64(len(evs)); dropped > 0 {
			fmt.Fprintf(stdout, "\n(%d older events evicted from the %d-event ring)\n",
				dropped, s.Obs.Tracer().Cap())
		}
		if len(evs) > *traceN {
			evs = evs[len(evs)-*traceN:]
		}
		fmt.Fprintln(stdout)
		for _, e := range evs {
			fmt.Fprintln(stdout, e)
		}
	}
	return 0
}

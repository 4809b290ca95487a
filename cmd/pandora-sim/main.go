// Command pandora-sim runs one declarative scenario spec (see
// internal/scenario) — boxes, links, fabrics, the call timeline, fault
// and degradation phases, and assertions — and prints its report: each
// named stream's per-destination figures, the fault, degradation and
// balancer sections the spec calls for, and the assertion summary. It
// exits non-zero if any assertion fails:
//
//	pandora-sim -scenario scenarios/conference.scn
//	pandora-sim -scenario scenarios/churn.scn -stats -trace 40
//
// -stats, -prom and -trace append the obs counter table, the same
// counters in Prometheus text format, and the last N trace events.
//
// A run can be profiled: -cpuprofile FILE samples the simulation alone,
// from after the system is built to before the results print, and
// -memprofile FILE writes the heap as the run leaves it. The heap
// profile is exact: with -memprofile set, every allocation from the
// system's build on is recorded (runtime.MemProfileRate = 1, restored
// once the profile is written), so each live byte is credited to the
// code that allocated it rather than to one sample per 512 KiB. Neither
// flag changes a byte of the output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams as parameters, so the
// golden test can call it. A usage error returns 2.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pandora-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarioPath := fs.String("scenario", "", "the scenario spec file to run (required)")
	stats := fs.Bool("stats", false, "print the full observability counter table")
	prom := fs.Bool("prom", false, "print counters in Prometheus text format")
	traceN := fs.Int("trace", 0, "print the last N trace events")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the simulation (set-up and printing excluded) to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile, taken as the simulation ends, to this file; every allocation from the build on is recorded (MemProfileRate 1), so the profile is exact and the run slower")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scenarioPath == "" {
		fmt.Fprintln(stderr, "pandora-sim: need a -scenario spec file to run")
		fs.Usage()
		return 2
	}
	sc, err := scenario.Load(*scenarioPath)
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
	defer exactHeap(*memProfile)()
	r.Start(nil)
	var sum *scenario.Summary
	err = profiled(*cpuProfile, *memProfile, func() (err error) {
		if err = r.RunFor(sc.Duration); err == nil {
			sum, err = r.Evaluate()
		}
		return err
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprint(stdout, r.Report(sum))

	o := r.Sys.Obs
	if *stats {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, o.Snapshot().Table())
	}
	if *prom {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, o.Snapshot().Prometheus())
	}
	if *traceN > 0 {
		evs := o.Tracer().Events()
		if dropped := o.Tracer().Total() - uint64(len(evs)); dropped > 0 {
			fmt.Fprintf(stdout, "\n(%d older events evicted from the %d-event ring)\n",
				dropped, o.Tracer().Cap())
		}
		if len(evs) > *traceN {
			evs = evs[len(evs)-*traceN:]
		}
		fmt.Fprintln(stdout)
		for _, e := range evs {
			fmt.Fprintln(stdout, e)
		}
	}
	if !sum.Pass {
		return 1
	}
	return 0
}

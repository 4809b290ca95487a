// Command pandora-trace dumps the figure-style time series behind the
// paper's mechanisms: the clawback buffer's jitter-correction delay
// adapting after a burst (§3.7.2), and the muting factor timeline of
// figure 4.1 — as tab-separated values ready for plotting.
//
// The events series instead dumps the obs event trace of a short
// two-box call: stream lifecycle, drops with reasons, and overload
// transitions, stamped with virtual time.
//
// Usage:
//
//	pandora-trace -series clawback > clawback.tsv
//	pandora-trace -series muting   > muting.tsv
//	pandora-trace -series events   > events.tsv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiment"
	"repro/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams as parameters, so the
// golden test can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pandora-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	series := fs.String("series", "clawback", "which series to dump: clawback | muting | events")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch *series {
	case "clawback":
		_, s := experiment.E5()
		fmt.Fprintln(stdout, "# seconds\tjitter-correction-ms")
		for _, p := range s.Points {
			fmt.Fprintf(stdout, "%.1f\t%.1f\n", p.At.Seconds(), p.Value)
		}
	case "muting":
		_, s := experiment.E8()
		fmt.Fprintln(stdout, "# ms\tmute-factor")
		for _, p := range s.Points {
			fmt.Fprintf(stdout, "%.1f\t%.2f\n", p.At.Seconds()*1000, p.Value)
		}
	case "events":
		return dumpEvents(stdout, stderr)
	default:
		fmt.Fprintf(stderr, "unknown series %q\n", *series)
		return 1
	}
	return 0
}

// eventsSpec is a two-box audio call over a slow, lossy link, long
// enough that the trace shows drops and overload transitions and not
// just opens.
const eventsSpec = `scenario trace-events
duration 4s
box alice mic=speech:1:12000 jitter
box bob mic=speech:2:12000 jitter
link alice bob bw=2M loss=0.02 lseed=7
at 0s call alice bob as c
at 3s close c[0]
`

// dumpEvents runs eventsSpec and prints the obs event ring as TSV.
func dumpEvents(stdout, stderr io.Writer) int {
	r, err := scenario.NewRunner(scenario.MustParse(eventsSpec))
	if err != nil {
		panic(err) // eventsSpec is a constant
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, "# seconds\tkind\tsource\tstream\tdetail")
	for _, e := range r.Sys.Obs.Tracer().Events() {
		fmt.Fprintf(stdout, "%.6f\t%s\t%s\t%d\t%s\n",
			time.Duration(e.At).Seconds(), e.Kind, e.Source, e.Stream, e.Detail)
	}
	return 0
}

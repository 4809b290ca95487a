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

	"repro/internal/atm"
	"repro/internal/box"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/occam"
	"repro/internal/workload"
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

// dumpEvents runs a two-box audio call over a congested link long
// enough to exercise drops and overload transitions, then prints the
// obs event ring as TSV.
func dumpEvents(stdout, stderr io.Writer) int {
	s := core.NewSystem()
	defer s.Shutdown()
	for i, name := range []string{"alice", "bob"} {
		s.AddBox(box.Config{
			Name:     name,
			Mic:      workload.NewSpeech(uint64(i+1), 12000),
			Features: box.Features{JitterCorrection: true},
		})
	}
	// A slow, lossy link so the trace shows drops, not just opens.
	s.Connect("alice", "bob", atm.LinkConfig{
		Bandwidth: 2_000_000,
		LossRate:  0.02,
		Seed:      7,
	})
	s.Control(func(p *occam.Proc) {
		ab, _ := s.AudioCall(p, "alice", "bob")
		p.Sleep(3 * time.Second)
		s.Close(p, ab)
	})
	if err := s.RunFor(4 * time.Second); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, "# seconds\tkind\tsource\tstream\tdetail")
	for _, e := range s.Obs.Tracer().Events() {
		fmt.Fprintf(stdout, "%.6f\t%s\t%s\t%d\t%s\n",
			time.Duration(e.At).Seconds(), e.Kind, e.Source, e.Stream, e.Detail)
	}
	return 0
}

package scenario

import (
	"fmt"
	"strings"

	"repro/internal/atm"
)

// Report renders a finished run for a reader: each destination of every
// named stream (an audio stream's playout figures, the display figures
// of a video stream's destination box), the overloaded boxes, the
// injected-fault totals, each degradation controller's actions, the
// balancer's placement summary, then sum — the assertion summary
// Evaluate returned — and the timeline events the run refused. It
// holds nothing wall-clock dependent: two runs of one spec give
// byte-identical reports.
func (r *Runner) Report(sum *Summary) string { return r.report(sum, false) }

// Fingerprint renders everything a finished run determined — the obs
// snapshot, then the report with every audio delivery's mixer digest —
// as one string. Two runs of one spec give byte-identical fingerprints;
// a different seed under faults does not.
func (r *Runner) Fingerprint() (string, error) {
	sum, err := r.Evaluate()
	if err != nil {
		return "", err
	}
	return r.Sys.Obs.Snapshot().Table() + r.report(sum, true), nil
}

// report is Report, with each audio delivery's mixer digest when
// digests is set.
func (r *Runner) report(sum *Summary, digests bool) string {
	var sb strings.Builder
	s := r.Sys
	for _, ref := range r.streamRefs() {
		st := r.Streams[ref]
		for _, d := range st.Dests {
			if st.Video {
				ds := s.Box(d.Name).DisplayStats()
				fmt.Fprintf(&sb, "video %s → %s: %d frames, %d decode errors, frame latency mean %v\n",
					st.From, d.Name, ds.Frames, ds.DecodeErrs, ds.FrameLat.Mean())
				continue
			}
			mx := s.Box(d.Name).Mixer()
			m, lat := mx.Stats(d.VCI), mx.Playout(d.VCI)
			fmt.Fprintf(&sb, "%s → %s: %6d segs, lost %4d, concealed %4d, silences %4d, latency mean %6.2fms p99 %6.2fms",
				st.From, d.Name, m.Segments, m.LostSegments, m.Concealed, m.Clawback.SilenceInserted,
				float64(lat.Mean())/1e6, float64(lat.Percentile(99))/1e6)
			if digests {
				fmt.Fprintf(&sb, ", digest %016x", m.Digest)
			}
			sb.WriteByte('\n')
		}
	}
	for _, b := range r.Spec.Boxes {
		if a := s.Box(b.Name).AudioStats(); a.LateTicks > 0 || a.MicDrops > 0 {
			fmt.Fprintf(&sb, "%s overloaded: %d late ticks, %d mic drops\n", b.Name, a.LateTicks, a.MicDrops)
		}
	}

	if r.FaultSpec.Active() {
		f := r.faultTotals()
		fmt.Fprintf(&sb, "\ninjected link faults: drop %d, corrupt %d, dup %d, delay %d, stall %d\n",
			f.Drops, f.Corruptions, f.Duplicates, f.Delays, f.Stalls)
		for _, b := range r.Spec.Boxes {
			if n := s.Box(b.Name).SwitchStats().CorruptDrops; n > 0 {
				fmt.Fprintf(&sb, "%s discarded %d corrupt segments at reassembly\n", b.Name, n)
			}
		}
	}
	actions := func(name, what string, n uint64) {
		acts := r.Ctrls[name].Actions()
		if len(acts) == 0 {
			return
		}
		fmt.Fprintf(&sb, "\n%s degradation (%d %s):\n", name, n, what)
		for _, act := range acts {
			fmt.Fprintf(&sb, "  %s\n", act)
		}
	}
	if r.Ctrls != nil {
		for _, b := range r.Spec.Boxes {
			actions(b.Name, "segments stopped at the switch", s.Box(b.Name).SwitchStats().ShedDrops)
		}
		for _, f := range r.Spec.Fabrics {
			for _, pt := range s.Fabric(f.Name).Ports() {
				actions(pt.Name(), "messages shed at the port", pt.Stats().ShedDrops)
			}
		}
	}

	if bal := r.Bal; bal != nil {
		fmt.Fprintf(&sb, "\nbalancer placement summary:\n  admission: %d admitted, %d rejected (budget %d)\n",
			bal.Admitted(), bal.Rejected(), r.Spec.Balance.Budget)
		for _, sc := range bal.Scores() {
			if sc.Eff == 0 && sc.Placements == 0 {
				continue
			}
			fmt.Fprintf(&sb, "  %s: score %.3f (raw %.3f, queue %.0f%%), %d placements\n",
				sc.Name, sc.Eff, sc.Raw, 100*sc.Queue, sc.Placements)
		}
		for _, m := range bal.Migrations() {
			fmt.Fprintf(&sb, "  %s\n", m)
		}
	}

	if sb.Len() > 0 {
		sb.WriteByte('\n')
	}
	sb.WriteString(sum.String())
	if len(r.Refused) > 0 {
		fmt.Fprintf(&sb, "scenario %s: %d events refused by their stream's plan\n", r.Spec.Name, len(r.Refused))
		for _, err := range r.Refused {
			fmt.Fprintf(&sb, "  %v\n", err)
		}
	}
	return sb.String()
}

// faultTotals sums the injected link faults that fired on every link
// and every fabric port.
func (r *Runner) faultTotals() atm.FaultStats {
	var fs atm.FaultStats
	for _, l := range r.Sys.Net.Links() {
		fs.Add(l.FaultStats())
	}
	for _, f := range r.Spec.Fabrics {
		for _, n := range f.Attach {
			fs.Add(r.Sys.FabricPort(n).Stats().Fault)
		}
	}
	return fs
}

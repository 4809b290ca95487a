package scenario

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/mixer"
)

// Summary is the deterministic result of a scenario's assertion phase:
// one line per assert, in spec order, plus a PASS/FAIL verdict. Two
// runs of the same spec render byte-identical summaries — the property
// the CI scenario-smoke job diffs against its golden files.
type Summary struct {
	Name  string
	Lines []string
	Pass  bool
}

// String renders the summary.
func (s *Summary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s: %d asserts\n", s.Name, len(s.Lines))
	for _, l := range s.Lines {
		sb.WriteString("  " + l + "\n")
	}
	verdict := "PASS"
	if !s.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&sb, "scenario %s: %s\n", s.Name, verdict)
	return sb.String()
}

// Evaluate runs every assertion against the finished run. A spec
// carrying survivors-identical runs (or reuses) the fault-free twin —
// an entire second system — so call it after RunFor has covered the
// full duration.
func (r *Runner) Evaluate() (*Summary, error) {
	sum := &Summary{Name: r.Spec.Name, Pass: true}
	var clean *Runner
	for _, a := range r.Spec.Asserts {
		if a.Kind == "survivors-identical" && clean == nil {
			var err error
			if clean, err = r.CleanTwin(); err != nil {
				return nil, err
			}
		}
		ok, detail := r.check(a, clean)
		status := "ok"
		if !ok {
			status, sum.Pass = "FAIL", false
		}
		label := a.Kind
		if a.Arg != "" {
			label += " " + a.Arg
		}
		sum.Lines = append(sum.Lines, fmt.Sprintf("%-4s %s: %s", status, label, detail))
	}
	return sum, nil
}

// CleanTwin returns the scenario's fault-free twin, run to its full
// duration: no link faults, no board crashes, no sink stalls, and none
// of the asserts that are about faults. Everything else — seeds,
// timeline, degradation, balancing — is identical. The twin is run
// once and kept, so Evaluate and a caller share it; Close closes it.
func (r *Runner) CleanTwin() (*Runner, error) {
	if r.twin != nil {
		return r.twin, nil
	}
	sc := *r.Spec
	sc.Faults = ""
	sc.Boxes = make([]Box, len(r.Spec.Boxes))
	copy(sc.Boxes, r.Spec.Boxes)
	for i := range sc.Boxes {
		sc.Boxes[i].Crashes = nil
		sc.Boxes[i].SinkStalls = nil
	}
	sc.Asserts = nil
	for _, a := range r.Spec.Asserts {
		if a.Kind != "survivors-identical" && a.Kind != "faults-fired" {
			sc.Asserts = append(sc.Asserts, a)
		}
	}
	c, err := NewRunner(&sc)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: fault-free twin: %w", r.Spec.Name, err)
	}
	if err := c.Run(); err != nil {
		c.Close()
		return nil, fmt.Errorf("scenario %s: fault-free twin: %w", r.Spec.Name, err)
	}
	r.twin = c
	return c, nil
}

// Survivors compares the run with its fault-free twin clean, delivery by
// delivery (named audio stream × destination, mixer digest and segment
// count): the blocks offered to the stream's clawback buffer, refused
// ones included, not the audio played (ROADMAP item 16(a)). A delivery is excluded when it goes into a box of skip, or
// when it touched a crashed box: the source or destination crashed, or
// the destination ever sat — before a repair re-homed it — in a tree
// subtree under a crashed relay, and so lost cells while the relay was
// down. Of the rest, checked counts the deliveries compared and
// mismatched those that differ.
func (r *Runner) Survivors(clean *Runner, skip ...string) (checked, mismatched, excluded int) {
	crashed := r.crashedBoxes()
	for _, ref := range r.streamRefs() {
		st := r.Streams[ref]
		if st.Video {
			continue
		}
		cst := clean.Streams[ref]
		for _, d := range st.Dests {
			dst := d.Name
			touched := crashed[st.From] || crashed[dst] || slices.Contains(skip, dst)
			for box := range crashed {
				touched = touched || st.EverUnder(dst, box)
			}
			if touched {
				excluded++
				continue
			}
			checked++
			m := r.Sys.Box(dst).Mixer().Stats(d.VCI)
			cm := clean.Sys.Box(dst).Mixer().Stats(cst.VCI(dst))
			if m.Digest != cm.Digest || m.Segments != cm.Segments {
				mismatched++
			}
		}
	}
	return checked, mismatched, excluded
}

// Sheds counts the degradation actions of the named controllers — of
// every controller when none is named: audio sheds, video sheds, and
// restores.
func (r *Runner) Sheds(ctrls ...string) (audio, video, restores int) {
	if len(ctrls) == 0 {
		ctrls = r.ctrlNames()
	}
	for _, name := range ctrls {
		for _, act := range r.Ctrls[name].Actions() {
			switch {
			case act.Restore:
				restores++
			case act.Video:
				video++
			default:
				audio++
			}
		}
	}
	return audio, video, restores
}

// ShedLadder returns controller ctrl's initial shed ladder — the
// streams it shed before its first restore, in order — and whether the
// ladder is strictly ascending. Stream ids and VCIs are allocated in
// open order, so ascending means oldest first (principle 3).
func (r *Runner) ShedLadder(ctrl string) (order []uint32, ascending bool) {
	ascending = true
	for _, act := range r.Ctrls[ctrl].Actions() {
		if act.Restore {
			break
		}
		if n := len(order); n > 0 && order[n-1] >= act.Stream {
			ascending = false
		}
		order = append(order, act.Stream)
	}
	return order, ascending
}

// crashedBoxes is the set of boxes with any board-crash window — the
// boxes survivors-identical excludes.
func (r *Runner) crashedBoxes() map[string]bool {
	out := map[string]bool{}
	for _, b := range r.Spec.Boxes {
		if len(b.Crashes) > 0 {
			out[b.Name] = true
		}
	}
	return out
}

// streamRefs returns the named streams in deterministic (sorted ref)
// order.
func (r *Runner) streamRefs() []string { return slices.Sorted(maps.Keys(r.Streams)) }

func (r *Runner) check(a Assert, clean *Runner) (bool, string) {
	switch a.Kind {
	case "no-audio-shed":
		n, _, _ := r.Sheds()
		return n == 0, fmt.Sprintf("%d audio sheds", n)
	case "video-shed":
		min := 1
		if a.HasValue {
			min = int(a.Value)
		}
		_, n, _ := r.Sheds()
		return n >= min, fmt.Sprintf("%d video sheds (want ≥ %d)", n, min)
	case "shed-order-oldest-first":
		if _, ok := r.Ctrls[a.Arg]; !ok {
			return false, fmt.Sprintf("no controller %q", a.Arg)
		}
		order, ascending := r.ShedLadder(a.Arg)
		return ascending && len(order) > 0, fmt.Sprintf("initial shed ladder %v", order)
	case "survivors-identical":
		checked, mismatched, _ := r.Survivors(clean)
		return mismatched == 0 && checked > 0,
			fmt.Sprintf("%d/%d surviving deliveries byte-identical with the fault-free twin", checked-mismatched, checked)
	case "wires-drain":
		leaks := 0
		var total uint64
		for _, b := range r.Spec.Boxes {
			_, news, _ := r.Sys.Box(b.Name).WirePoolStats()
			total += news
			if r.Sys.Box(b.Name).WirePoolLeaked() != 0 {
				leaks++
			}
		}
		return leaks == 0, fmt.Sprintf("%d pools, %d wire allocations, %d pools leaking", len(r.Spec.Boxes), total, leaks)
	case "gauge-zero", "gauge-max":
		limit := 0.0
		if a.Kind == "gauge-max" {
			limit = a.Value
		}
		samples := r.Sys.Obs.Snapshot().Family(a.Arg)
		if len(samples) == 0 {
			return false, fmt.Sprintf("no gauge %q registered", a.Arg)
		}
		max := 0.0
		for _, s := range samples {
			if s.Value > max {
				max = s.Value
			}
		}
		return max <= limit, fmt.Sprintf("max %g over %d samples (limit %g)", max, len(samples), limit)
	case "min-segments":
		return r.perDest(a, "min", "%.0f", func(m mixer.StreamStats) float64 { return float64(m.Segments) })
	case "max-lost":
		return r.perDest(a, "max", "%.0f", func(m mixer.StreamStats) float64 { return float64(m.LostSegments) })
	case "max-silence-pct":
		return r.perDest(a, "max", "%.2f%%", func(m mixer.StreamStats) float64 {
			if m.Blocks == 0 {
				return 0
			}
			return 100 * float64(m.Clawback.SilenceInserted) / float64(m.Blocks)
		})
	case "copies-max":
		peak := r.Sys.Box(a.Arg).MaxNetCopies()
		return peak <= int(a.Value), fmt.Sprintf("peak %d copies per hop at %s (limit %d)", peak, a.Arg, int(a.Value))
	case "faults-fired":
		// Board crashes count too: a crash window inside the run is a
		// fired fault even when no link fault is configured.
		total, crashes := r.faultTotals().Total(), len(r.crashedBoxes())
		return total > 0 || crashes > 0, fmt.Sprintf("%d link faults, %d crashed boxes", total, crashes)
	case "circuits":
		n := 0
		for _, ref := range r.streamRefs() {
			if st := r.Streams[ref]; st.From == a.Arg {
				n += len(st.Dests)
			}
		}
		if a.HasValue {
			return n == int(a.Value), fmt.Sprintf("%d circuits open from %s (want %d)", n, a.Arg, int(a.Value))
		}
		return true, fmt.Sprintf("%d circuits open from %s", n, a.Arg)
	case "rejected":
		var n uint64
		if r.Bal != nil {
			n = r.Bal.Rejected()
		}
		return n == uint64(a.Value), fmt.Sprintf("%d calls rejected by admission (want %d)", n, uint64(a.Value))
	case "migrations":
		n := 0
		if r.Bal != nil {
			n = r.Bal.MigrationsFrom(a.Arg)
		}
		return n == int(a.Value), fmt.Sprintf("%d migrations off %s (want %d)", n, a.Arg, int(a.Value))
	case "spread":
		st, ok := r.Streams[a.Arg]
		if !ok {
			return false, fmt.Sprintf("no tree stream %q", a.Arg)
		}
		n := st.FeederBoxes()
		return n >= int(a.Value), fmt.Sprintf("%d distinct feeder boxes for %s (want ≥ %d)", n, a.Arg, int(a.Value))
	}
	return false, "unknown assert"
}

// perDest checks one figure of every destination of the stream a names
// against a's limit: the figure is at least the limit at each for
// extreme "min", at most for "max". The detail lists each destination's
// figure, printed with verb — beyond eight destinations, their count and
// the binding extreme instead (a 1000-viewer tree would print 1000
// numbers).
func (r *Runner) perDest(a Assert, extreme, verb string, fig func(mixer.StreamStats) float64) (bool, string) {
	st, ok := r.Streams[a.Arg]
	if !ok {
		return false, fmt.Sprintf("no stream %q", a.Arg)
	}
	sign := 1.0 // how a figure is worse: higher for "max", lower for "min"
	if extreme == "min" {
		sign = -1
	}
	pass, worst := true, 0.0
	var parts []string
	for i, d := range st.Dests {
		v := fig(r.Sys.Box(d.Name).Mixer().Stats(d.VCI))
		pass = pass && sign*v <= sign*a.Value
		if i == 0 || sign*v > sign*worst {
			worst = v
		}
		parts = append(parts, d.Name+"="+fmt.Sprintf(verb, v))
	}
	if len(st.Dests) > 8 {
		parts = []string{fmt.Sprintf("%d dests, %s=%s", len(st.Dests), extreme, fmt.Sprintf(verb, worst))}
	}
	return pass, fmt.Sprintf("%s (limit %g)", strings.Join(parts, " "), a.Value)
}

// ctrlNames returns controller names in deterministic order.
func (r *Runner) ctrlNames() []string { return slices.Sorted(maps.Keys(r.Ctrls)) }

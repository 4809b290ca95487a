// Package scenario is the declarative workload layer: one Scenario
// value — built in Go or parsed from the small line-based text format
// (see Parse) — describes a whole run: the boxes and their board
// features, the link and fabric topology, background feed and
// cross-traffic generators, the call graph over virtual time, a fault
// phase (a fault list, see ParseFaults), an overload
// degradation phase, and the assertions that make the run a test
// (byte-identical delivery sets, shed-order policy, obs gauge and
// wire-pool leak bounds). The Runner executes a spec on core.System;
// the experiment suite, the suites in scenarios/, pandora-sim (a spec
// file, whose finished run Report renders) and pandora-node (the
// box.Config a spec's Box embeds) all work from the same spec type, so
// a workload is written once as data instead of once per binary as
// wiring.
//
// Ownership: scenario never touches segment wires. Its generator
// processes (feeds, cross traffic) encode from their own pools and
// hand references to the network exactly as a box does; everything
// else is plumbing calls into core and read-only sampling of obs
// counters and mixer digests after the run, so the wire refcount
// rules of internal/segment are unaffected by running a workload
// through this package instead of by hand.
package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/atm"
	"repro/internal/balancer"
	"repro/internal/box"
	"repro/internal/core"
	"repro/internal/degrade"
	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// Mic describes a box's microphone source: "tone" with A=frequency,
// B=amplitude, or "speech" with A=seed, B=amplitude.
type Mic struct {
	Kind string
	A, B uint64
}

// Box declares one Pandora box: the box.Config it is built from, and
// two settings a spec keeps as data. Each shadows the Config field of
// its name, which the Runner fills from it.
type Box struct {
	box.Config
	// Mic is the microphone as a spec, not a source: a source has state,
	// and CleanTwin builds a second system from the same spec. Source
	// builds the Config's Mic from it.
	Mic *Mic
	// SinkStalls are stuck-output windows applied to the box's
	// net-audio and net-video decoupling buffers: the Config's
	// SinkStalls under those two slots.
	SinkStalls []faultinject.Window
}

// Source builds the source m describes; a nil m is no source, which
// box.New makes silence.
func (m *Mic) Source() workload.AudioSource {
	switch {
	case m == nil:
		return nil
	case m.Kind == "speech":
		return workload.NewSpeech(m.A, int32(m.B))
	}
	return workload.NewTone(int(m.A), int32(m.B))
}

// Link joins two boxes with a symmetric chain of hops.
type Link struct {
	From, To string
	Hops     []atm.LinkConfig
}

// Fabric declares a switching fabric and the nodes attached to it.
type Fabric struct {
	Name string
	fabric.Config
	Attach []string
}

// Feed is a raw generator host pushing N tone streams of 2-block
// segments every 4 ms into a box on VCIs Base..Base+N-1 (the
// mixing-load generator of E1/E10).
type Feed struct {
	Box  string
	N    int
	Base uint32
}

// Cross is a cross-traffic generator hammering one hop of a path with
// random-size messages (the SuperJanet middle hop of E16).
type Cross struct {
	From, To   string // the path whose hop carries the cross traffic
	Hop        int
	VCI        uint32
	Seed       uint64
	Gap        time.Duration // max random inter-message gap
	SizeMin    int
	SizeJitter int // message size = SizeMin + rand(SizeJitter)
}

// Event is one timeline entry. At orders the timeline and sets the
// gap slept before the command is issued: the control process sleeps
// At minus the previous event's At after the previous command
// completes (commands themselves consume virtual time for their
// circuit-setup round trips), exactly like a hand-written control
// process with p.Sleep between commands.
// Op names a row of the op table, ops, which says what each op does.
type Event struct {
	At     time.Duration
	Op     string
	From   string
	To     []string
	Cam    box.CameraStream // video: the band; its Stream is core's to number
	Tree   core.TreeConfig  // tree: fanout bound and tree count (zero: flat, one tree)
	Stream uint32           // netsend: source stream number
	VCI    uint32           // netsend: circuit id
	Ref    string           // name for later split/drop/close/assert reference
}

// checkDegrade rejects a negative period: Validate's range check, which
// Parse also applies to the directive's own line. Zero fields select
// the controllers' defaults.
func checkDegrade(d *degrade.Config) error {
	if d.ShedEvery < 0 || d.Hold < 0 {
		return fmt.Errorf("degrade shed=%s hold=%s: periods must be ≥ 0 (0 selects the default)", d.ShedEvery, d.Hold)
	}
	return nil
}

// checkBalance rejects a negative count or period and a migrate ratio
// outside [0,1]: Validate's range check, which Parse also applies to
// the directive's own line. Zero fields select the balancer's
// defaults.
func checkBalance(b *balancer.Config) error {
	switch {
	case b.Budget < 0 || b.MaxMigrations < 0:
		return fmt.Errorf("balance budget=%d maxmig=%d: counts must be ≥ 0 (0 means unlimited)", b.Budget, b.MaxMigrations)
	case b.Interval < 0 || b.Cooldown < 0:
		return fmt.Errorf("balance interval=%s cooldown=%s: periods must be ≥ 0 (0 selects the default)", b.Interval, b.Cooldown)
	case !(b.MigrateHighWater >= 0 && b.MigrateHighWater <= 1): // NaN included
		return fmt.Errorf("balance migrate=%v: want a ratio in [0,1]", b.MigrateHighWater)
	}
	return nil
}

// Assert is one post-run check. assertKinds lists the kinds and what
// each reads from Arg and Value; Runner.check evaluates them.
type Assert struct {
	Kind     string
	Arg      string
	Value    float64
	HasValue bool
}

// Scenario is one complete declarative workload.
type Scenario struct {
	Name     string
	Seed     uint64
	Duration time.Duration
	Boxes    []Box
	Links    []Link
	Fabrics  []Fabric
	Feeds    []Feed
	Cross    []Cross
	Events   []Event
	// Faults is a fault phase, a list of link faults kept verbatim (see
	// ParseFaults); Seed is its master seed. They go to every link and
	// fabric port (subject to target=). A box's crash and sink-stall
	// windows are on its Box.
	Faults string
	// Degrade enables the overload controllers of every box and fabric
	// port; Balance, the balancer control plane (internal/balancer).
	Degrade *degrade.Config
	Balance *balancer.Config
	Asserts []Assert
}

// specTopology answers a plan's questions from a spec: core opens a
// circuit over a declared link, in either direction, or a shared
// fabric; a spec's nodes are all boxes, so every member can relay.
type specTopology struct {
	fabOf map[string]string // each attached node's fabric
	hops  map[[2]string]int // each link's hop count, under both orders of its pair
}

func (t specTopology) Connectable(a, b string) bool {
	fa, ok := t.fabOf[a]
	return ok && fa == t.fabOf[b] || t.hops[[2]string{a, b}] > 0
}

func (specTopology) CanRelay(string) bool { return true }

// Validate checks internal consistency: names resolve, events refer to
// streams opened earlier and not yet closed and asserts to streams an
// event opens, core's planner can make every stream's moves, the fault
// phase parses, times fit the duration, and the degrade and balance
// settings are in range.
// Parse and NewRunner both call it, so a spec built in Go is held to
// what a spec file is.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("scenario %s: duration must be positive", sc.Name)
	}
	boxes := map[string]bool{}
	for _, b := range sc.Boxes {
		if b.Name == "" {
			return fmt.Errorf("scenario %s: box with empty name", sc.Name)
		}
		if boxes[b.Name] {
			return fmt.Errorf("scenario %s: duplicate box %q", sc.Name, b.Name)
		}
		if b.Mic != nil && b.Mic.Kind != "tone" && b.Mic.Kind != "speech" {
			return fmt.Errorf("scenario %s: box %s: unknown mic kind %q", sc.Name, b.Name, b.Mic.Kind)
		}
		boxes[b.Name] = true
	}
	need := func(where any, names ...string) error {
		for _, name := range names {
			if !boxes[name] {
				return fmt.Errorf("scenario %s: %s refers to unknown box %q", sc.Name, where, name)
			}
		}
		return nil
	}
	topo := specTopology{fabOf: map[string]string{}, hops: map[[2]string]int{}}
	hops, fabOf := topo.hops, topo.fabOf
	for _, l := range sc.Links {
		if err := need("link", l.From, l.To); err != nil {
			return err
		}
		if len(l.Hops) == 0 {
			return fmt.Errorf("scenario %s: link %s %s has no hops", sc.Name, l.From, l.To)
		}
		for i, h := range l.Hops {
			if !(h.LossRate >= 0 && h.LossRate <= 1) { // NaN fails both
				return fmt.Errorf("scenario %s: link %s %s hop %d: loss wants a probability, got %v", sc.Name, l.From, l.To, i, h.LossRate)
			}
		}
		if l.From == l.To || hops[[2]string{l.From, l.To}] > 0 {
			return fmt.Errorf("scenario %s: link %s %s: a pair of distinct boxes takes one link, in either order", sc.Name, l.From, l.To)
		}
		hops[[2]string{l.From, l.To}], hops[[2]string{l.To, l.From}] = len(l.Hops), len(l.Hops)
	}
	fabs := map[string]bool{}
	for _, f := range sc.Fabrics {
		if fabs[f.Name] {
			return fmt.Errorf("scenario %s: duplicate fabric %q", sc.Name, f.Name)
		}
		fabs[f.Name] = true
		for _, n := range f.Attach {
			if err := need("fabric "+f.Name, n); err != nil {
				return err
			}
			if prev, dup := fabOf[n]; dup {
				return fmt.Errorf("scenario %s: node %s attached to fabric %s and again to fabric %s", sc.Name, n, prev, f.Name)
			}
			fabOf[n] = f.Name
		}
	}
	for _, f := range sc.Feeds {
		if err := need("feed", f.Box); err != nil {
			return err
		}
		if f.N <= 0 {
			return fmt.Errorf("scenario %s: feed into %s needs n ≥ 1", sc.Name, f.Box)
		}
	}
	for _, c := range sc.Cross {
		if err := need("cross", c.From, c.To); err != nil {
			return err
		}
		// The generator loads one hop of the pair's link, which core
		// uses only when no fabric joins the pair.
		fa, onFabric := fabOf[c.From]
		switch n := hops[[2]string{c.From, c.To}]; {
		case n == 0 || onFabric && fa == fabOf[c.To]:
			return fmt.Errorf("scenario %s: cross %s %s: wants a link between them and no shared fabric", sc.Name, c.From, c.To)
		case c.Hop < 0 || c.Hop >= n:
			return fmt.Errorf("scenario %s: cross %s %s: hop=%d is not a hop of their %d-hop link", sc.Name, c.From, c.To, c.Hop, n)
		}
	}
	// plans holds each opened stream ref's plan, run through core's own
	// verbs in the order the Runner plays the events (nil: a placed
	// callee's stream, not checked). A balancer's picks depend on load,
	// so with one only an attach nothing reaches fails here.
	plans := make(map[string]*core.TreePlan, len(sc.Events))
	verb := func(where any, err error) error {
		if err == nil || sc.Balance != nil && !errors.Is(err, core.ErrNoPath) {
			return nil
		}
		return fmt.Errorf("scenario %s: %s: %w", sc.Name, where, err)
	}
	// open plans a stream from src to each of to, as core opens it.
	open := func(where any, src string, cfg core.TreeConfig, to []string) (*core.TreePlan, error) {
		pl, err := core.NewTreePlan(topo, src, cfg), need(where, src)
		for i := 0; err == nil && i < len(to); i++ {
			if err = need(where, to[i]); err == nil {
				err = verb(where, pl.Attach(to[i], nil))
			}
		}
		return pl, err
	}
	sent := map[uint32]bool{}   // the VCIs netsends have opened
	closed := map[string]bool{} // refs a close has named, and their members
	order := make([]int, len(sc.Events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return sc.Events[order[i]].At < sc.Events[order[j]].At })
	for _, i := range order {
		ev := sc.Events[i]
		where := &eventAt{i + 1, &sc.Events[i]}
		if ev.At < 0 || ev.At > sc.Duration {
			return fmt.Errorf("scenario %s: %s outside the run", sc.Name, where)
		}
		o, ok := ops[ev.Op]
		if !ok {
			return fmt.Errorf("scenario %s: %s: unknown op", sc.Name, where)
		}
		var pl *core.TreePlan // the stream ev opens, or the one it acts on
		var err error
		switch o.shape {
		case toList:
			if len(ev.To) == 0 {
				return fmt.Errorf("scenario %s: %s has no destination", sc.Name, where)
			}
			if pl, err = open(where, ev.From, ev.Tree, ev.To); err != nil {
				return err
			}
			if c := ev.Cam; ev.Op == "video" && (c.Rect.W <= 0 || c.Rect.H <= 0 || c.Rate.Num <= 0 || c.Rate.Den <= 0) {
				return fmt.Errorf("scenario %s: %s needs rect=X,Y,W,H and rate=N/D", sc.Name, where)
			}
			if ev.Op == "netsend" {
				if ev.Stream == 0 || ev.VCI == 0 {
					return fmt.Errorf("scenario %s: %s needs stream= and vci=", sc.Name, where)
				}
				if ev.VCI >= fabric.VCILimit {
					return fmt.Errorf("scenario %s: %s: vci=%d: a fabric routes VCIs below %d", sc.Name, where, ev.VCI, fabric.VCILimit)
				}
				if sent[ev.VCI] {
					return fmt.Errorf("scenario %s: %s: vci=%d is an earlier netsend's", sc.Name, where, ev.VCI)
				}
				sent[ev.VCI] = true
			}
			if ev.Op == "tree" && (ev.Tree.Fanout < 0 || ev.Tree.Trees < 0) {
				return fmt.Errorf("scenario %s: %s wants k ≥ 0 and trees ≥ 0", sc.Name, where)
			}
		case pair, members:
			all := append([]string{ev.From}, ev.To...)
			switch {
			case o.shape == pair && len(ev.To) != 1:
				return fmt.Errorf("scenario %s: %s wants exactly one peer", sc.Name, where)
			case len(all) < 2:
				return fmt.Errorf("scenario %s: %s wants at least two members", sc.Name, where)
			}
			// A call or conference is a flat stream from each member to the
			// others, named REF[i]. A balancer-placed callee (peer ?) is
			// picked at event time, so its stream is not checked.
			placed := o.shape == pair && all[1] == "?"
			if placed {
				if sc.Balance == nil {
					return fmt.Errorf("scenario %s: %s: placed call (peer ?) needs a balance block", sc.Name, where)
				}
				all = all[:1]
			}
			to := make([]string, 0, len(all))
			for j, m := range all {
				mp, err := open(where, m, core.TreeConfig{}, append(append(to[:0], all[:j]...), all[j+1:]...))
				if err != nil {
					return err
				}
				if ev.Ref != "" {
					plans[memberRef(ev.Ref, j)] = mp
				}
			}
			if placed && ev.Ref != "" {
				plans[memberRef(ev.Ref, 1)] = nil
			}
		default: // refDst, refDsts, refOnly
			if pl, ok = plans[ev.Ref]; !ok {
				return fmt.Errorf("scenario %s: %s refers to unopened stream %q", sc.Name, where, ev.Ref)
			}
			if closed[ev.Ref] {
				return fmt.Errorf("scenario %s: %s names stream %q after its close", sc.Name, where, ev.Ref)
			}
			if ev.Op == "close" {
				closed[ev.Ref] = true
				for j := 0; ; j++ {
					if _, ok := plans[memberRef(ev.Ref, j)]; !ok {
						break
					}
					closed[memberRef(ev.Ref, j)] = true
				}
			}
			switch {
			case o.shape == refDst && len(ev.To) != 1:
				return fmt.Errorf("scenario %s: %s wants exactly one destination", sc.Name, where)
			case o.shape == refDsts && len(ev.To) == 0:
				return fmt.Errorf("scenario %s: %s has no destination", sc.Name, where)
			}
			for _, d := range ev.To {
				err = need(where, d)
				if err == nil && pl != nil {
					switch ev.Op {
					case "pull":
						err = verb(where, pl.Attach(d, nil))
					case "drop":
						err = verb(where, pl.Remove(d, nil))
					case "repair":
						err = verb(where, pl.Rehome(d, nil))
					}
				}
				if err != nil {
					return err
				}
			}
		}
		if ev.Ref != "" && o.opens {
			if _, dup := plans[ev.Ref]; dup {
				return fmt.Errorf("scenario %s: duplicate stream ref %q", sc.Name, ev.Ref)
			}
			plans[ev.Ref] = pl
		}
	}
	if _, err := ParseFaults(sc.Faults, sc.Seed); err != nil {
		return fmt.Errorf("scenario %s: faults: %w", sc.Name, err)
	}
	if d := sc.Degrade; d != nil {
		if err := checkDegrade(d); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	if b := sc.Balance; b != nil {
		if err := checkBalance(b); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	for _, a := range sc.Asserts {
		k, ok := assertKinds[a.Kind]
		_, opened := plans[a.Arg]
		switch {
		case !ok:
			return fmt.Errorf("scenario %s: unknown assert kind %q", sc.Name, a.Kind)
		case k.balance && sc.Balance == nil:
			return fmt.Errorf("scenario %s: assert %s needs a balance block", sc.Name, a.Kind)
		case (k.arg == "") != (a.Arg == ""), k.value == "" && a.HasValue, k.value == "N" && !a.HasValue:
			return fmt.Errorf("scenario %s: assert %s: want %s", sc.Name, a.Kind, k.usage(a.Kind))
		case k.arg == "BOX" && !boxes[a.Arg]:
			return need("assert "+a.Kind, a.Arg)
		case k.arg == "REF" && !opened:
			return fmt.Errorf("scenario %s: assert %s refers to unopened stream %q", sc.Name, a.Kind, a.Arg)
		}
	}
	return nil
}

// eventAt names the nth event in Validate's errors. It is formatted
// only when there is one: a spec's events mostly pass.
type eventAt struct {
	n  int
	ev *Event
}

func (e *eventAt) String() string { return fmt.Sprintf("event %d (%s at %s)", e.n, e.ev.Op, e.ev.At) }

// Format renders a valid scenario (see Validate) in the text grammar
// such that Parse(Format(sc)) reproduces sc.
func (sc *Scenario) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s\n", sc.Name)
	if sc.Seed != 0 {
		fmt.Fprintf(&sb, "seed %d\n", sc.Seed)
	}
	fmt.Fprintf(&sb, "duration %s\n", sc.Duration)
	for _, b := range sc.Boxes {
		writeLine(&sb, "box "+b.Name, "", b.clauses())
	}
	for _, l := range sc.Links {
		hops := make([][]clause, len(l.Hops))
		for i := range l.Hops {
			hops[i] = hopClauses(&l.Hops[i])
		}
		writeLine(&sb, "link "+l.From+" "+l.To, "", hops...)
	}
	for _, f := range sc.Fabrics {
		writeLine(&sb, "fabric "+f.Name, "", f.clauses())
		if len(f.Attach) > 0 {
			fmt.Fprintf(&sb, "attach %s %s\n", f.Name, strings.Join(f.Attach, " "))
		}
	}
	for _, f := range sc.Feeds {
		writeLine(&sb, "feed "+f.Box, "", f.clauses())
	}
	for _, c := range sc.Cross {
		writeLine(&sb, "cross "+c.From+" "+c.To, "", c.clauses())
	}
	for _, ev := range sc.Events {
		o := ops[ev.Op]
		head := fmt.Sprintf("at %s %s", ev.At, ev.Op)
		switch o.shape {
		case toList:
			head += " " + ev.From + " -> " + strings.Join(ev.To, ",")
		case pair, members:
			head += " " + ev.From + " " + strings.Join(ev.To, " ")
		case refDst, refDsts:
			head += " " + ev.Ref + " " + strings.Join(ev.To, ",")
		case refOnly:
			head += " " + ev.Ref
		}
		tail := ""
		if ev.Ref != "" && o.opens {
			tail = " as " + ev.Ref
		}
		writeLine(&sb, head, tail, o.clauses(&ev))
	}
	if sc.Faults != "" {
		fmt.Fprintf(&sb, "faults %s\n", sc.Faults)
	}
	if sc.Degrade != nil {
		writeLine(&sb, "degrade", "", degradeClauses(sc.Degrade))
	}
	if sc.Balance != nil {
		writeLine(&sb, "balance", "", balanceClauses(sc.Balance))
	}
	for _, a := range sc.Asserts {
		sb.WriteString("assert " + a.Kind)
		if a.Arg != "" {
			sb.WriteString(" " + a.Arg)
		}
		if a.HasValue {
			sb.WriteString(" " + fmtFloat(a.Value))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func fmtFloat(v float64) string {
	return strings.TrimPrefix(fmt.Sprintf("%v", v), "+")
}

// Package scenario is the declarative workload layer: one Scenario
// value — built in Go or parsed from the small line-based text format
// (see Parse) — describes a whole run: the boxes and their board
// features, the link and fabric topology, background feed and
// cross-traffic generators, the call graph over virtual time, a fault
// phase in the faultinject.ParseSpec grammar verbatim, an overload
// degradation phase, and the assertions that make the run a test
// (byte-identical delivery sets, shed-order policy, obs gauge and
// wire-pool leak bounds). The Runner executes a spec on core.System;
// the experiment suite, pandora-sim (a spec file, or the spec its flags
// describe), pandora-trace and pandora-node (Box.Config) all work from
// the same spec type, so a workload is written once as data instead of
// once per binary as wiring.
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
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/box"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// Mic describes a box's microphone source: "tone" with A=frequency,
// B=amplitude, or "speech" with A=seed, B=amplitude.
type Mic struct {
	Kind string
	A, B uint64
}

// Box declares one Pandora box.
type Box struct {
	Name             string
	Mic              *Mic
	CameraW, CameraH int
	Blocks           int   // blocks per audio segment (0 = default 2)
	NetIfBits        int64 // network interface rate limit, bits/s
	Interleave       bool  // interleave audio between video cell bursts
	SharedNet        bool  // ablation: one shared net buffer
	Jitter           bool  // jitter-correction feature
	Muting           bool  // echo-muting feature
	Interface        bool  // host-interface feature
	// Crashes are board crash-and-restart windows for this box,
	// keyed by board name ("server", "audio", "display").
	Crashes map[string][]faultinject.Window
	// SinkStalls are stuck-output windows applied to the box's
	// net-audio and net-video decoupling buffers.
	SinkStalls []faultinject.Window
}

// Config maps the box onto the box.Config the Runner and pandora-node
// build it from. Crashes and SinkStalls are not mapped: they are
// simulation-only fault hooks, and the Runner merges them with the
// spec-level fault phase before it sets them.
func (b Box) Config() box.Config {
	cfg := box.Config{
		Name:              b.Name,
		BlocksPerSegment:  b.Blocks,
		CameraW:           b.CameraW,
		CameraH:           b.CameraH,
		NetInterfaceBits:  b.NetIfBits,
		InterleaveNetwork: b.Interleave,
		SharedNetBuffer:   b.SharedNet,
		Features: box.Features{
			JitterCorrection: b.Jitter,
			Muting:           b.Muting,
			Interface:        b.Interface,
		},
	}
	if b.Mic != nil {
		switch b.Mic.Kind {
		case "tone":
			cfg.Mic = workload.NewTone(int(b.Mic.A), int32(b.Mic.B))
		case "speech":
			cfg.Mic = workload.NewSpeech(b.Mic.A, int32(b.Mic.B))
		}
	}
	return cfg
}

// Hop is one link of a (possibly multi-hop) path.
type Hop struct {
	Bandwidth   int64
	Propagation time.Duration
	QueueLimit  int
	Loss        float64
	Seed        uint64
}

// Link joins two boxes with a symmetric chain of hops.
type Link struct {
	From, To string
	Hops     []Hop
}

// Fabric declares a switching fabric and the nodes attached to it.
type Fabric struct {
	Name            string
	PortBandwidth   int64
	Propagation     time.Duration
	EgressCellLimit int
	Attach          []string
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
// Ops: "audio" (one-way stream From→To...), "video" (with Rect/Rate),
// "tree" (audio distributed over replication trees: interior boxes
// re-split locally, at most K copies each, striped over Trees trees),
// "call" (audio both ways between From and To[0]), "conference" (full
// mesh over From+To), "split"/"drop" (add/remove destination To[0] of
// stream Ref), "pull" (late joiners To... graft onto tree stream Ref),
// "repair" (re-home the orphaned subtrees of interior box To[0] of
// tree stream Ref), "close" (tear down stream Ref), "netsend" (raw
// route: Stream at From onto VCI toward To[0], mic started, no speaker
// route at the far end).
type Event struct {
	At         time.Duration
	Op         string
	From       string
	To         []string
	X, Y, W, H int // video rect
	RateNum    int // video frame rate numerator
	RateDen    int
	Segs       int    // video segments per frame (0 = default)
	Stream     uint32 // netsend: source stream number
	VCI        uint32 // netsend: circuit id
	K          int    // tree: per-box fanout bound (0 = flat)
	Trees      int    // tree: number of interior-disjoint trees (0 = 1)
	Ref        string // name for later split/drop/close/assert reference
}

// Degrade enables the per-box (and per-fabric-port) overload
// controllers. Zero fields select the controllers' defaults.
type Degrade struct {
	ShedEvery time.Duration
	Hold      time.Duration
}

// check rejects a negative period: Validate's range check, which
// Parse also applies to the directive's own line.
func (d *Degrade) check() error {
	if d.ShedEvery < 0 || d.Hold < 0 {
		return fmt.Errorf("degrade shed=%s hold=%s: periods must be ≥ 0 (0 selects the default)", d.ShedEvery, d.Hold)
	}
	return nil
}

// Balance enables the balancer control plane (internal/balancer):
// load-scored placement for tree attach/pull/repair and `call A ?`
// events, call admission against Budget, and mid-stream migration off
// hot fabric ports. Zero fields select the balancer's defaults.
type Balance struct {
	Budget        int           // concurrent admitted calls (0 = unlimited)
	Interval      time.Duration // scoreboard sampling tick
	Migrate       float64       // egress occupancy ratio that triggers migration
	Cooldown      time.Duration // minimum spacing between migrations
	MaxMigrations int           // migration cap per run (0 = unlimited)
}

// check rejects a negative count or period and a migrate ratio outside
// [0,1]: Validate's range check, which Parse also applies to the
// directive's own line.
func (b *Balance) check() error {
	switch {
	case b.Budget < 0 || b.MaxMigrations < 0:
		return fmt.Errorf("balance budget=%d maxmig=%d: counts must be ≥ 0 (0 means unlimited)", b.Budget, b.MaxMigrations)
	case b.Interval < 0 || b.Cooldown < 0:
		return fmt.Errorf("balance interval=%s cooldown=%s: periods must be ≥ 0 (0 selects the default)", b.Interval, b.Cooldown)
	case !(b.Migrate >= 0 && b.Migrate <= 1): // NaN included
		return fmt.Errorf("balance migrate=%v: want a ratio in [0,1]", b.Migrate)
	}
	return nil
}

// Assert is one post-run check. Kinds and their Arg/Value use:
//
//	no-audio-shed                no controller ever shed audio
//	video-shed [min]             ≥min video sheds happened (default 1)
//	shed-order-oldest-first CTRL controller CTRL shed strictly oldest-first
//	survivors-identical          re-run with faults stripped; every stream
//	                             not touching a crashed box delivered a
//	                             byte-identical set (mixer digests match)
//	wires-drain                  every box wire pool has free == allocations
//	gauge-zero NAME              every sample of obs gauge NAME is 0
//	gauge-max NAME MAX           every sample of obs gauge NAME ≤ MAX
//	min-segments REF MIN         every destination of REF played ≥MIN segments
//	max-lost REF MAX             every destination of REF lost ≤MAX segments
//	max-silence-pct REF MAX      silence fill ≤MAX% of blocks at every dest
//	faults-fired                 at least one injected fault actually fired
//	circuits SRC [N]             record SRC's open circuit count (and, with
//	                             N, require it to be exactly N)
//	copies-max BOX N             BOX never fanned more than N outgoing
//	                             copies of any single stream (the per-hop
//	                             copy invariant of the distribution trees)
//	rejected N                   the balancer's admission control rejected
//	                             exactly N calls (requires a balance block)
//	migrations BOX N             exactly N balancer migrations moved load
//	                             off BOX (requires a balance block)
//	spread REF N                 tree stream REF ends the run fed by ≥N
//	                             distinct boxes (source included) — the
//	                             placement spread witness
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
	// Faults is a fault phase in the faultinject.ParseSpec grammar,
	// verbatim; Seed is its master seed. Link faults go to every link
	// and fabric port (subject to target=), sink stalls and board
	// crashes to the first box.
	Faults  string
	Degrade *Degrade
	Balance *Balance
	Asserts []Assert
}

var assertKinds = map[string]struct{}{
	"no-audio-shed": {}, "video-shed": {}, "shed-order-oldest-first": {},
	"survivors-identical": {}, "wires-drain": {}, "gauge-zero": {},
	"gauge-max": {}, "min-segments": {}, "max-lost": {},
	"max-silence-pct": {}, "faults-fired": {}, "circuits": {},
	"copies-max": {}, "rejected": {}, "migrations": {}, "spread": {},
}

// Validate checks internal consistency: names resolve, events refer to
// streams opened earlier, the fault phase parses, times fit the
// duration, and the degrade and balance settings are in range. Parse
// and NewRunner both call it, so a spec built in Go is held to what a
// spec file is.
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
	need := func(where, name string) error {
		if !boxes[name] {
			return fmt.Errorf("scenario %s: %s refers to unknown box %q", sc.Name, where, name)
		}
		return nil
	}
	// What core.System opens a direct circuit over: a declared link
	// (either direction) or a shared fabric. A flat stream — every op but
	// a tree with k > 0, whose members relay for one another — needs one
	// from its source to each destination.
	linked := map[[2]string]bool{}
	fabOf := map[string]string{}
	reach := func(where, a, b string) error {
		if fa, ok := fabOf[a]; (ok && fa == fabOf[b]) || linked[[2]string{a, b}] {
			return nil
		}
		return fmt.Errorf("scenario %s: %s: no path from %s to %s (they share neither a fabric nor a link)", sc.Name, where, a, b)
	}
	for _, l := range sc.Links {
		if err := need("link", l.From); err != nil {
			return err
		}
		if err := need("link", l.To); err != nil {
			return err
		}
		if len(l.Hops) == 0 {
			return fmt.Errorf("scenario %s: link %s %s has no hops", sc.Name, l.From, l.To)
		}
		if l.From == l.To || linked[[2]string{l.From, l.To}] {
			return fmt.Errorf("scenario %s: link %s %s: a pair of distinct boxes takes one link, in either order", sc.Name, l.From, l.To)
		}
		linked[[2]string{l.From, l.To}], linked[[2]string{l.To, l.From}] = true, true
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
		if err := need("cross", c.From); err != nil {
			return err
		}
		if err := need("cross", c.To); err != nil {
			return err
		}
	}
	refs := map[string]bool{}
	// feeders holds, per tree stream ref, the boxes core may pick to feed
	// a joiner: the source and, for a planned tree (k > 0), every member
	// so far. A joiner none of them reaches would be fed by the source
	// over no path. join checks d against them and, on a planned tree,
	// adds it.
	feeders, planned := map[string][]string{}, map[string]bool{}
	join := func(where, ref, d string) error {
		for _, f := range feeders[ref] {
			if reach(where, f, d) == nil {
				if planned[ref] {
					feeders[ref] = append(feeders[ref], d)
				}
				return nil
			}
		}
		return fmt.Errorf("scenario %s: %s: no path to %s from the tree's source or any member (none shares a fabric or a link with it)", sc.Name, where, d)
	}
	for i, ev := range sc.Events {
		where := fmt.Sprintf("event %d (%s at %s)", i+1, ev.Op, ev.At)
		if ev.At < 0 || ev.At > sc.Duration {
			return fmt.Errorf("scenario %s: %s outside the run", sc.Name, where)
		}
		switch ev.Op {
		case "audio", "video", "netsend", "tree":
			if err := need(where, ev.From); err != nil {
				return err
			}
			if len(ev.To) == 0 {
				return fmt.Errorf("scenario %s: %s has no destination", sc.Name, where)
			}
			flat := ev.Op != "tree" || ev.K == 0
			if ev.Op == "tree" {
				feeders[ev.Ref], planned[ev.Ref] = []string{ev.From}, !flat
			}
			for _, d := range ev.To {
				if err := need(where, d); err != nil {
					return err
				}
				err := reach(where, ev.From, d)
				if !flat {
					err = join(where, ev.Ref, d)
				}
				if err != nil {
					return err
				}
			}
			if ev.Op == "video" && (ev.W <= 0 || ev.H <= 0 || ev.RateNum <= 0 || ev.RateDen <= 0) {
				return fmt.Errorf("scenario %s: %s needs rect=X,Y,W,H and rate=N/D", sc.Name, where)
			}
			if ev.Op == "netsend" && (ev.Stream == 0 || ev.VCI == 0) {
				return fmt.Errorf("scenario %s: %s needs stream= and vci=", sc.Name, where)
			}
			if ev.Op == "tree" && (ev.K < 0 || ev.Trees < 0) {
				return fmt.Errorf("scenario %s: %s wants k ≥ 0 and trees ≥ 0", sc.Name, where)
			}
		case "call":
			if len(ev.To) != 1 {
				return fmt.Errorf("scenario %s: %s wants exactly one peer", sc.Name, where)
			}
			if err := need(where, ev.From); err != nil {
				return err
			}
			if ev.To[0] == "?" {
				// Balancer-placed callee: the control plane picks the
				// least-loaded reachable box at event time.
				if sc.Balance == nil {
					return fmt.Errorf("scenario %s: %s: placed call (peer ?) needs a balance block", sc.Name, where)
				}
			} else if err := need(where, ev.To[0]); err != nil {
				return err
			} else if err := reach(where, ev.From, ev.To[0]); err != nil {
				return err
			}
		case "conference":
			members := append([]string{ev.From}, ev.To...)
			if len(members) < 2 {
				return fmt.Errorf("scenario %s: %s wants at least two members", sc.Name, where)
			}
			for i, m := range members {
				if err := need(where, m); err != nil {
					return err
				}
				for _, peer := range members[:i] {
					if err := reach(where, peer, m); err != nil {
						return err
					}
				}
			}
		case "split", "drop", "repair":
			if !refs[ev.Ref] {
				return fmt.Errorf("scenario %s: %s refers to unopened stream %q", sc.Name, where, ev.Ref)
			}
			if len(ev.To) != 1 {
				return fmt.Errorf("scenario %s: %s wants exactly one destination", sc.Name, where)
			}
			if err := need(where, ev.To[0]); err != nil {
				return err
			}
		case "pull":
			if !refs[ev.Ref] {
				return fmt.Errorf("scenario %s: %s refers to unopened stream %q", sc.Name, where, ev.Ref)
			}
			if len(ev.To) == 0 {
				return fmt.Errorf("scenario %s: %s has no destination", sc.Name, where)
			}
			_, tree := feeders[ev.Ref]
			for _, d := range ev.To {
				if err := need(where, d); err != nil {
					return err
				}
				if tree {
					if err := join(where, ev.Ref, d); err != nil {
						return err
					}
				}
			}
		case "close":
			if !refs[ev.Ref] {
				return fmt.Errorf("scenario %s: %s refers to unopened stream %q", sc.Name, where, ev.Ref)
			}
		default:
			return fmt.Errorf("scenario %s: %s: unknown op", sc.Name, where)
		}
		if ev.Ref != "" && (ev.Op == "audio" || ev.Op == "video" || ev.Op == "tree" || ev.Op == "call" || ev.Op == "conference") {
			if refs[ev.Ref] {
				return fmt.Errorf("scenario %s: duplicate stream ref %q", sc.Name, ev.Ref)
			}
			refs[ev.Ref] = true
			// call and conference name their member streams REF[i], the
			// names later split/drop/close events use.
			if ev.Op == "call" || ev.Op == "conference" {
				for i := 0; i <= len(ev.To); i++ {
					refs[fmt.Sprintf("%s[%d]", ev.Ref, i)] = true
				}
			}
		}
	}
	if _, err := faultinject.ParseSpec(sc.Faults, sc.Seed); err != nil {
		return fmt.Errorf("scenario %s: faults: %w", sc.Name, err)
	}
	if d := sc.Degrade; d != nil {
		if err := d.check(); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	if b := sc.Balance; b != nil {
		if err := b.check(); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	for _, a := range sc.Asserts {
		if _, ok := assertKinds[a.Kind]; !ok {
			return fmt.Errorf("scenario %s: unknown assert kind %q", sc.Name, a.Kind)
		}
		if (a.Kind == "rejected" || a.Kind == "migrations") && sc.Balance == nil {
			return fmt.Errorf("scenario %s: assert %s needs a balance block", sc.Name, a.Kind)
		}
	}
	return nil
}

// Format renders the scenario in the text grammar such that
// Parse(Format(sc)) reproduces sc.
func (sc *Scenario) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s\n", sc.Name)
	if sc.Seed != 0 {
		fmt.Fprintf(&sb, "seed %d\n", sc.Seed)
	}
	fmt.Fprintf(&sb, "duration %s\n", sc.Duration)
	for _, b := range sc.Boxes {
		sb.WriteString("box " + b.Name)
		if b.Mic != nil {
			fmt.Fprintf(&sb, " mic=%s:%d:%d", b.Mic.Kind, b.Mic.A, b.Mic.B)
		}
		if b.CameraW > 0 || b.CameraH > 0 {
			fmt.Fprintf(&sb, " camera=%dx%d", b.CameraW, b.CameraH)
		}
		if b.Blocks > 0 {
			fmt.Fprintf(&sb, " blocks=%d", b.Blocks)
		}
		if b.NetIfBits > 0 {
			fmt.Fprintf(&sb, " netif=%s", fmtBits(b.NetIfBits))
		}
		if b.Interleave {
			sb.WriteString(" interleave")
		}
		if b.SharedNet {
			sb.WriteString(" sharednet")
		}
		if b.Jitter {
			sb.WriteString(" jitter")
		}
		if b.Muting {
			sb.WriteString(" muting")
		}
		if b.Interface {
			sb.WriteString(" interface")
		}
		boards := make([]string, 0, len(b.Crashes))
		for board := range b.Crashes {
			boards = append(boards, board)
		}
		sort.Strings(boards)
		for _, board := range boards {
			for _, w := range b.Crashes[board] {
				fmt.Fprintf(&sb, " crash=%s:%s-%s", board, w.From, w.To)
			}
		}
		for _, w := range b.SinkStalls {
			fmt.Fprintf(&sb, " sinkstall=%s-%s", w.From, w.To)
		}
		sb.WriteString("\n")
	}
	for _, l := range sc.Links {
		fmt.Fprintf(&sb, "link %s %s ", l.From, l.To)
		for i, h := range l.Hops {
			if i > 0 {
				sb.WriteString(" / ")
			}
			sb.WriteString("bw=" + fmtBits(h.Bandwidth))
			if h.Propagation > 0 {
				fmt.Fprintf(&sb, " prop=%s", h.Propagation)
			}
			if h.QueueLimit > 0 {
				fmt.Fprintf(&sb, " queue=%d", h.QueueLimit)
			}
			if h.Loss > 0 {
				fmt.Fprintf(&sb, " loss=%s", fmtFloat(h.Loss))
			}
			if h.Seed != 0 {
				fmt.Fprintf(&sb, " lseed=%d", h.Seed)
			}
		}
		sb.WriteString("\n")
	}
	for _, f := range sc.Fabrics {
		sb.WriteString("fabric " + f.Name)
		if f.PortBandwidth > 0 {
			fmt.Fprintf(&sb, " portbw=%s", fmtBits(f.PortBandwidth))
		}
		if f.Propagation > 0 {
			fmt.Fprintf(&sb, " prop=%s", f.Propagation)
		}
		if f.EgressCellLimit > 0 {
			fmt.Fprintf(&sb, " egress=%d", f.EgressCellLimit)
		}
		sb.WriteString("\n")
		if len(f.Attach) > 0 {
			fmt.Fprintf(&sb, "attach %s %s\n", f.Name, strings.Join(f.Attach, " "))
		}
	}
	for _, f := range sc.Feeds {
		fmt.Fprintf(&sb, "feed %s n=%d base=%d\n", f.Box, f.N, f.Base)
	}
	for _, c := range sc.Cross {
		fmt.Fprintf(&sb, "cross %s %s hop=%d vci=%d seed=%d gap=%s size=%d+%d\n",
			c.From, c.To, c.Hop, c.VCI, c.Seed, c.Gap, c.SizeMin, c.SizeJitter)
	}
	for _, ev := range sc.Events {
		fmt.Fprintf(&sb, "at %s %s", ev.At, ev.Op)
		switch ev.Op {
		case "audio", "video", "netsend", "tree":
			fmt.Fprintf(&sb, " %s -> %s", ev.From, strings.Join(ev.To, ","))
			if ev.Op == "video" {
				fmt.Fprintf(&sb, " rect=%d,%d,%d,%d rate=%d/%d", ev.X, ev.Y, ev.W, ev.H, ev.RateNum, ev.RateDen)
				if ev.Segs > 0 {
					fmt.Fprintf(&sb, " segs=%d", ev.Segs)
				}
			}
			if ev.Op == "netsend" {
				fmt.Fprintf(&sb, " stream=%d vci=%d", ev.Stream, ev.VCI)
			}
			if ev.Op == "tree" {
				if ev.K > 0 {
					fmt.Fprintf(&sb, " k=%d", ev.K)
				}
				if ev.Trees > 0 {
					fmt.Fprintf(&sb, " trees=%d", ev.Trees)
				}
			}
		case "call":
			fmt.Fprintf(&sb, " %s %s", ev.From, ev.To[0])
		case "conference":
			fmt.Fprintf(&sb, " %s %s", ev.From, strings.Join(ev.To, " "))
		case "split", "drop", "repair":
			fmt.Fprintf(&sb, " %s %s", ev.Ref, ev.To[0])
		case "pull":
			fmt.Fprintf(&sb, " %s %s", ev.Ref, strings.Join(ev.To, ","))
		case "close":
			fmt.Fprintf(&sb, " %s", ev.Ref)
		}
		if ev.Ref != "" && (ev.Op == "audio" || ev.Op == "video" || ev.Op == "tree" || ev.Op == "call" || ev.Op == "conference") {
			fmt.Fprintf(&sb, " as %s", ev.Ref)
		}
		sb.WriteString("\n")
	}
	if sc.Faults != "" {
		fmt.Fprintf(&sb, "faults %s\n", sc.Faults)
	}
	if sc.Degrade != nil {
		fmt.Fprintf(&sb, "degrade shed=%s hold=%s\n", sc.Degrade.ShedEvery, sc.Degrade.Hold)
	}
	if b := sc.Balance; b != nil {
		sb.WriteString("balance")
		if b.Budget > 0 {
			fmt.Fprintf(&sb, " budget=%d", b.Budget)
		}
		if b.Interval > 0 {
			fmt.Fprintf(&sb, " interval=%s", b.Interval)
		}
		if b.Migrate > 0 {
			fmt.Fprintf(&sb, " migrate=%s", fmtFloat(b.Migrate))
		}
		if b.Cooldown > 0 {
			fmt.Fprintf(&sb, " cooldown=%s", b.Cooldown)
		}
		if b.MaxMigrations > 0 {
			fmt.Fprintf(&sb, " maxmig=%d", b.MaxMigrations)
		}
		sb.WriteString("\n")
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

// fmtBits renders a bit rate with the largest exact suffix, so parsed
// and printed forms agree ("100M", "64k", "2500k").
func fmtBits(v int64) string {
	switch {
	case v != 0 && v%1_000_000 == 0:
		return fmt.Sprintf("%dM", v/1_000_000)
	case v != 0 && v%1000 == 0:
		return fmt.Sprintf("%dk", v/1000)
	default:
		return fmt.Sprintf("%d", v)
	}
}

func fmtFloat(v float64) string {
	return strings.TrimPrefix(fmt.Sprintf("%v", v), "+")
}

package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/box"
	"repro/internal/obs"
	"repro/internal/occam"
)

// This file is the distribution-tree planner: instead of the source
// box opening one circuit per viewer (the tannoy of §4.1, whose
// fan-out is capped by the source port's bandwidth), the first box to
// carry a stream becomes its *origin* and every further box pulls one
// copy from a box that already has it, re-splitting locally at its own
// switch (principle 5 makes the local split safe, principle 6 lets the
// fan-out change mid-stream). A multiple-tree push variant stripes the
// destinations over T interior-disjoint trees, so a faulted interior
// box degrades only its own subtree of its own tree, and a repair
// re-parents the orphans onto surviving boxes between segments.
//
// A TreePlan is data over endpoint names: each verb commits a decision,
// or refuses and leaves the plan as it was. scenario.Validate runs the
// verbs over a spec; the System verbs below execute what they decide.

// TreeConfig parameterises a distribution tree.
type TreeConfig struct {
	// Fanout (K) bounds how many copies any single box forwards for
	// the stream. 0 selects the flat plan: the source unicasts to
	// every destination, exactly the pre-tree tannoy.
	Fanout int
	// Trees (T) stripes the destinations over T interior-disjoint
	// trees (default 1). The source sends one copy per tree; the
	// trees share no interior box, so one faulted interior box can
	// disrupt at most 1/T of the viewers.
	Trees int
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.Trees <= 0 {
		c.Trees = 1
	}
	return c
}

// Topology is what a plan asks of the network under it, by endpoint
// name: can a circuit from → to be opened (a shared fabric, or a link
// path, bridges included), and can name forward copies (a box can, a
// repository cannot).
type Topology interface {
	Connectable(from, to string) bool
	CanRelay(name string) bool
}

// ErrNoPath marks a refused attach that no placement could make:
// neither the source nor any member reaches the newcomer.
var ErrNoPath = errors.New("no path")

// ErrClosed marks a verb on a closed stream, whose plan Close released.
var ErrClosed = errors.New("stream closed")

// member is one destination's place in a stream's plan. The source is
// a member too — the plan's root, whose children are the tree roots.
type member struct {
	name     string
	tree     int
	parent   *member // who feeds this member; nil only for the root
	children []*member
	// former records every parent this member was moved away from — by
	// a repair, a migration or an interior removal alike. It is the "was
	// this delivery ever routed through box X" history byte-identity
	// checks exclude: a box that is merely hot today may crash later.
	former []*member
}

// TreePlan is the planner's record of one stream's distribution
// tree(s): who feeds whom and what moves have reshaped it. Streams
// opened flat (TreeConfig zero value) carry a plan too — one where
// every destination is a direct child of the source.
type TreePlan struct {
	cfg  TreeConfig
	topo Topology
	root *member // the source
	// order is global placement order — also VCI-allocation order, so
	// replays are deterministic.
	order []*member
	// placed holds each tree's members that may relay (none, in a flat
	// plan), in placement order; the eligibility scan reads it front to
	// back, which keeps trees near-balanced and deterministic.
	placed  [][]*member
	members map[string]*member // by name; the root is not one
	next    int                // round-robin tree striping cursor (survives pulls)
	repairs uint64
}

// NewTreePlan returns the empty plan of a stream from src over topo.
func NewTreePlan(topo Topology, src string, cfg TreeConfig) *TreePlan {
	cfg = cfg.withDefaults()
	return &TreePlan{
		cfg:     cfg,
		topo:    topo,
		root:    &member{name: src},
		placed:  make([][]*member, cfg.Trees),
		members: make(map[string]*member),
	}
}

// Config returns the plan's tree parameters (defaults applied).
func (t *TreePlan) Config() TreeConfig { return t.cfg }

// Members returns every destination in placement order.
func (t *TreePlan) Members() []string {
	out := make([]string, len(t.order))
	for i, n := range t.order {
		out[i] = n.name
	}
	return out
}

// Parent returns who currently feeds dst — the source's name for a
// tree root — or "" when dst is not a member.
func (t *TreePlan) Parent(dst string) string {
	n := t.members[dst]
	if n == nil {
		return ""
	}
	return n.parent.name
}

// Depth returns the longest source→leaf hop count (1 = every
// destination fed directly by the source).
func (t *TreePlan) Depth() int {
	deepest := 0
	for _, n := range t.order {
		d := 0
		for c := n; c.parent != nil; c = c.parent {
			d++
		}
		deepest = max(deepest, d)
	}
	return deepest
}

// MaxInteriorCopies returns the largest forwarded-copy count any
// destination box currently carries — the per-hop copy invariant says
// this never exceeds the configured fanout.
func (t *TreePlan) MaxInteriorCopies() int {
	most := 0
	for _, n := range t.order {
		most = max(most, len(n.children))
	}
	return most
}

// SourceCopies returns how many copies the source itself sends — the
// origin-pull headline: one per tree, however many viewers.
func (t *TreePlan) SourceCopies() int { return len(t.root.children) }

// Repairs returns how many repairs reshaped the plan. Migrations and
// interior removals move subtrees too but are not repairs: nothing
// failed.
func (t *TreePlan) Repairs() uint64 { return t.repairs }

// Relays returns how many forwarded copies box currently carries for
// this plan — 0 means box is a leaf (or not a member). The balancer's
// migration loop uses it to find streams relayed through a hot box.
func (t *TreePlan) Relays(box string) int {
	n := t.members[box]
	if n == nil {
		return 0
	}
	return len(n.children)
}

// FeederBoxes returns how many distinct boxes (the source included)
// currently feed at least one member — the placement spread the
// scenario layer's `spread` assert measures.
func (t *TreePlan) FeederBoxes() int {
	feeders := map[*member]bool{}
	for _, n := range t.order {
		feeders[n.parent] = true
	}
	return len(feeders)
}

// RehomedFrom returns the members ever moved away from box, in
// placement order.
func (t *TreePlan) RehomedFrom(box string) []string {
	var out []string
	for _, n := range t.order {
		if slices.ContainsFunc(n.former, func(f *member) bool { return f.name == box }) {
			out = append(out, n.name)
		}
	}
	return out
}

// EverUnder reports whether dst's delivery path ever passed through
// box — through its current parent chain or, after moves, through any
// former parent at any point in the run. Byte-identity assertions use
// it to exclude deliveries a crashed relay could have disturbed.
func (t *TreePlan) EverUnder(dst, box string) bool {
	n := t.members[dst]
	return n != nil && slices.ContainsFunc(everAbove(n), func(u *member) bool { return u.name == box })
}

// everAbove returns every node n's delivery path ever passed through:
// its current parent chain and, after moves, any former parent's, the
// source included.
func everAbove(n *member) []*member {
	var out []*member
	var up func(m *member)
	up = func(m *member) {
		for _, u := range append(slices.Clip(m.former), m.parent) {
			if u != nil && !slices.Contains(out, u) {
				out = append(out, u)
				up(u)
			}
		}
	}
	up(n)
	return out
}

// keep returns what a closed stream keeps of the plan: nil for a flat
// plan, whose every destination only the source ever fed.
func (t *TreePlan) keep() *keptPlan {
	if t.cfg.Fanout <= 0 {
		return nil
	}
	k := &keptPlan{under: make(map[string][]string), feeders: t.FeederBoxes(), depth: t.Depth(), copies: t.MaxInteriorCopies(), repairs: t.repairs}
	for _, n := range t.order {
		for _, u := range everAbove(n) {
			if u != t.root {
				k.under[n.name] = append(k.under[n.name], u.name)
			}
		}
	}
	return k
}

// under reports whether n sits in root's (current) subtree, root
// included.
func under(n, root *member) bool {
	for c := n; c != nil; c = c.parent {
		if c == root {
			return true
		}
	}
	return false
}

// choose picks who should feed n, a newcomer or an orphan with its
// subtree intact: a member of n's tree that can relay, has spare
// fanout, is neither the parent n is leaving nor inside n's own
// subtree, and reaches n. Without a placer the first such member in
// placement order wins; with one, the least loaded of them, the first
// of equals, and the placer books the placement. When no member
// qualifies the source feeds n if it reaches it; nil means nothing can.
func (t *TreePlan) choose(n *member, pl Placer) *member {
	var best *member
	var bestLoad float64
	for _, c := range t.placed[n.tree] {
		if len(c.children) >= t.cfg.Fanout || c == n.parent || under(c, n) || !t.topo.Connectable(c.name, n.name) {
			continue
		}
		if pl == nil {
			return c // first-fit needs no further scanning
		}
		if load := pl.Load(c.name); best == nil || load < bestLoad {
			best, bestLoad = c, load
		}
	}
	if best != nil {
		pl.Placed(best.name)
		return best
	}
	if t.topo.Connectable(t.root.name, n.name) {
		return t.root
	}
	return nil
}

// refuse explains why choose found no feeder for n.
func (t *TreePlan) refuse(n *member) error {
	switch {
	case t.cfg.Fanout <= 0:
		return fmt.Errorf("%w from %s to %s (they share neither a fabric nor a link)", ErrNoPath, t.root.name, n.name)
	case n.parent != nil:
		return fmt.Errorf("cannot re-home %s off %s: the tree's source does not reach it, and no other member of its tree with fewer than k=%d children outside its subtree does", n.name, n.parent.name, t.cfg.Fanout)
	case slices.ContainsFunc(t.order, func(m *member) bool { return t.topo.Connectable(m.name, n.name) }):
		return fmt.Errorf("no path to %s from the tree's source, and no member of its tree with fewer than k=%d children reaches it", n.name, t.cfg.Fanout)
	}
	return fmt.Errorf("%w to %s from the tree's source or any member (none shares a fabric or a link with it)", ErrNoPath, n.name)
}

// adopt makes p feed n, recording the parent n leaves.
func adopt(n, p *member) {
	if n.parent != nil {
		n.former = append(n.former, n.parent)
	}
	n.parent = p
	p.children = append(p.children, n)
}

// Attach makes dst a member — round-robin onto the next tree, fed by
// whom choose picks with pl (nil: first-fit). A name that is already a
// member is attached once: nothing moves.
func (t *TreePlan) Attach(dst string, pl Placer) error {
	if t.members[dst] != nil {
		return nil
	}
	n := &member{name: dst, tree: t.next % t.cfg.Trees}
	p := t.choose(n, pl)
	if p == nil {
		return t.refuse(n)
	}
	t.next++
	adopt(n, p)
	if t.cfg.Fanout > 0 && t.topo.CanRelay(dst) {
		t.placed[n.tree] = append(t.placed[n.tree], n) // a flat plan's scan stays empty: a tannoy is O(n)
	}
	t.order = append(t.order, n)
	t.members[dst] = n
	return nil
}

// Rehome moves every subtree from under relay onto other feeders: each
// orphan, its subtree intact, is fed by whom choose picks with pl, in
// relay's child order. Nothing moves when relay is no member or a leaf.
// When an orphan has no feeder the moves made so far are undone.
func (t *TreePlan) Rehome(relay string, pl Placer) error {
	from := t.members[relay]
	if from == nil {
		return nil
	}
	orphans := from.children
	from.children = nil
	for i, o := range orphans {
		p := t.choose(o, pl)
		if p == nil {
			err := t.refuse(o)
			for _, m := range orphans[:i] {
				m.parent.children = without(m.parent.children, m)
				m.parent, m.former = from, m.former[:len(m.former)-1]
			}
			from.children = orphans
			return err
		}
		adopt(o, p)
	}
	return nil
}

// Remove drops dst from the plan, re-homing its subtrees first.
func (t *TreePlan) Remove(dst string, pl Placer) error {
	n := t.members[dst]
	if err := t.Rehome(dst, pl); n == nil || err != nil {
		return err
	}
	// Cleared, not deleted: deletes leave tombstones, after which a Go
	// map grows at points its random hash seed picks, so the plan's
	// allocations would differ from run to run. The keys are box names,
	// so the map stays as small as the system.
	t.members[dst] = nil
	t.order = without(t.order, n)
	t.placed[n.tree] = without(t.placed[n.tree], n)
	n.parent.children = without(n.parent.children, n)
	return nil
}

// without removes n from list, keeping the order of the rest.
func without(list []*member, n *member) []*member {
	return slices.DeleteFunc(list, func(m *member) bool { return m == n })
}

// The System's tree verbs ask the stream's plan to decide, then
// allocate VCIs, open and close circuits and install switch routes to
// match. A refused verb returns the plan's error and touches nothing; so
// does a verb on a closed stream, with ErrClosed.

// CanRelay reports whether the named node is a box (see Topology).
func (s *System) CanRelay(name string) bool { return s.lookup(name).box != nil }

// install (re)installs n's switch route to match the plan, leaving out
// the children in pending, whose circuits have not moved yet. A
// destination plays the stream and forwards one copy per child — the
// local re-split of principle 5; the source only sends, to its children
// in placement order. reinstall keeps the route at the front of the
// degrade order (principle 3).
func (s *System) install(p *occam.Proc, st *Stream, n *member, reinstall bool, pending []*member) {
	b := s.node(n.name).box
	if b == nil {
		return // repositories take delivery straight off the circuit
	}
	r := box.Route{Stream: st.VCIs[n.name], Video: st.Video}
	kids, local := n.children, box.OutSpeaker
	if n == st.Tree.root {
		r.Stream, kids = st.Local, st.Tree.order
	} else if st.Video {
		local = box.OutDisplay
	}
	for _, c := range kids {
		if c.parent == n && !slices.Contains(pending, c) {
			r.NetVCIs = append(r.NetVCIs, st.VCIs[c.name])
		}
	}
	switch {
	case n == st.Tree.root:
		r.Outputs = []box.Output{box.OutNetwork}
	case len(r.NetVCIs) > 0:
		r.Outputs, r.Relay = []box.Output{local, box.OutNetwork}, true
	default:
		r.Outputs = []box.Output{local}
	}
	if reinstall {
		r.Opened = occam.Time(1)
	}
	b.SetRoute(p, r)
}

// attach attaches dst to the stream's plan and, when the plan takes a
// newcomer, gives it a fresh VCI and opens its circuit from the feeder.
// It returns the newcomer; nil when dst was already a member.
func (s *System) attach(p *occam.Proc, st *Stream, dst string) (*member, error) {
	if st.Tree.members[dst] != nil {
		return nil, nil // a member is attached once
	}
	if err := st.Tree.Attach(dst, s.placer); err != nil {
		return nil, err
	}
	n := st.Tree.members[dst]
	st.VCIs[dst] = s.allocVCI()
	s.openCircuit(p, st.VCIs[dst], s.node(n.parent.name), s.node(dst), st.Video)
	return n, nil
}

// SendAudioTree opens a one-way audio stream distributed over
// replication trees instead of per-viewer circuits from the source.
// cfg.Fanout 0 degenerates to the flat tannoy of SendAudio. A
// destination the plan refuses is left out, and the error names the
// first.
func (s *System) SendAudioTree(p *occam.Proc, cfg TreeConfig, from string, to ...string) (*Stream, error) {
	return s.sendTree(p, cfg, from, box.CameraStream{}, false, to)
}

// sendTree is the shared apply for audio and video streams: attach
// every destination (plan, VCI, feeder→child circuit) in destination
// order, install destination routes (interior boxes re-split), then the
// source route — one copy per tree — and start the media source last,
// so every relay is routed before data flows.
func (s *System) sendTree(p *occam.Proc, cfg TreeConfig, from string, cs box.CameraStream, video bool, to []string) (*Stream, error) {
	src := s.node(from)
	src.nextStream++
	plan := NewTreePlan(s, from, cfg)
	st := &Stream{From: from, Local: src.nextStream, Video: video, VCIs: make(map[string]uint32), Tree: plan}
	var first error
	for _, dst := range to {
		if _, err := s.attach(p, st, dst); first == nil {
			first = err
		}
	}
	// Routes go in after every child VCI exists, destination order.
	for _, n := range plan.order {
		s.install(p, st, n, false, nil)
	}
	if plan.cfg.Fanout > 0 {
		treeTable.Register(s.Obs, st, obs.L("tree", fmt.Sprintf("%s.%d", st.From, st.Local)))
	}
	s.install(p, st, plan.root, false, nil)
	if video {
		cs.Stream = st.Local
		src.box.StartCamera(p, cs)
	} else {
		src.box.StartMic(p, st.Local)
	}
	return st, first
}

// treeTable is a planned tree's shape and repair count.
var treeTable = obs.NewTable(
	obs.GaugeOf("tree_depth", func(st *Stream) float64 { return float64(st.treeRow().depth) }),
	obs.GaugeOf("tree_copies_max", func(st *Stream) float64 { return float64(st.treeRow().copies) }),
	obs.CounterOf("tree_repairs_total", func(st *Stream) uint64 { return st.treeRow().repairs }),
)

// treeRow is what a tree's row reads: its plan's figures while the
// stream is open, those Close kept after.
func (st *Stream) treeRow() keptPlan {
	if st.Tree != nil {
		return keptPlan{depth: st.Tree.Depth(), copies: st.Tree.MaxInteriorCopies(), repairs: st.Tree.repairs}
	}
	return *st.kept
}

// Pull grafts late joiners onto an open stream: each destination pulls
// one copy from the chosen already-carrying box (spare fanout,
// reachable, scanned in placement order) — the source's own port never
// gains another circuit unless nothing else can reach the joiner. A
// destination that is already a member is left as it is; one the plan
// refuses is left out, and the error names the first.
func (s *System) Pull(p *occam.Proc, st *Stream, dsts ...string) (first error) {
	if st.Closed() {
		return ErrClosed
	}
	for _, dst := range dsts {
		n, err := s.attach(p, st, dst)
		if n != nil {
			s.install(p, st, n, false, nil)
			s.install(p, st, n.parent, true, nil)
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// rehome moves the subtrees under relay as its plan decides, while the
// stream plays: reinstall relay once so it stops forwarding, then move
// each orphan's circuit — unless both feeders reach it across its
// fabric — and reinstall who took it, which never lists an orphan not
// yet moved. It applies between segments (principle 6); why is for the
// trace. Returns how many subtrees moved.
func (s *System) rehome(p *occam.Proc, st *Stream, relay, why string) (int, error) {
	if st.Closed() {
		return 0, ErrClosed
	}
	from := st.Tree.members[relay]
	if from == nil {
		return 0, nil
	}
	orphans := from.children // the plan empties from's list, not this array
	if err := st.Tree.Rehome(relay, s.placer); err != nil || len(orphans) == 0 {
		return 0, err
	}
	s.install(p, st, from, true, nil)
	old := s.node(from.name)
	for i, o := range orphans {
		if to, vci := s.node(o.parent.name), st.VCIs[o.name]; !s.sameRoute(old, to, s.node(o.name)) {
			s.closeCircuit(vci, old, s.node(o.name))
			s.openCircuit(p, vci, to, s.node(o.name), st.Video)
		}
		s.install(p, st, o.parent, true, orphans[i+1:])
	}
	// Concatenated, not formatted: fmt's printer pool empties at every
	// collection, so a Sprintf allocates a new printer or not as the
	// collector happened to run.
	s.Obs.Tracer().Emit(obs.EvRepair, "core.tree", st.Local,
		"re-homed "+strconv.Itoa(len(orphans))+" subtrees around "+why+" "+from.name)
	return len(orphans), nil
}

// RepairTree re-homes the orphaned children of a failed interior box
// onto surviving boxes of their own tree, falling back to the source,
// and books a repair. Returns how many orphans moved: 0, and no repair,
// when failed relays nothing for this stream or the plan refuses.
func (s *System) RepairTree(p *occam.Proc, st *Stream, failed string) (int, error) {
	moved, err := s.rehome(p, st, failed, "failed")
	if moved > 0 {
		st.Tree.repairs++
	}
	return moved, err
}

// MigrateTree is the balancer's verb: hot is healthy but overloaded, so
// it stops relaying this stream — its subtrees move exactly as a
// repair moves them — and keeps its own playout. Nothing failed, so no
// repair is booked. Returns how many subtrees moved.
func (s *System) MigrateTree(p *occam.Proc, st *Stream, hot string) (int, error) {
	return s.rehome(p, st, hot, "hot")
}

// Close shuts a stream down entirely: stop the media source, remove
// the source route, then every destination's route and its feeding
// circuit, in placement order. The stream then keeps its figures, not
// its plan (see Stream). Closing a closed stream does nothing.
func (s *System) Close(p *occam.Proc, st *Stream) {
	if st.Closed() {
		return
	}
	src := s.node(st.From).box
	if st.Video {
		src.StopCamera(p, st.Local)
	} else {
		src.StopMic(p)
	}
	src.CloseRoute(p, st.Local)
	for _, n := range st.Tree.order {
		s.disconnect(p, n, st.VCIs[n.name])
	}
	st.kept, st.Tree = st.Tree.keep(), nil
}

// disconnect removes n's switch route and the circuit on vci that
// feeds it.
func (s *System) disconnect(p *occam.Proc, n *member, vci uint32) {
	dst := s.node(n.name)
	if dst.box != nil {
		dst.box.CloseRoute(p, vci)
	}
	s.closeCircuit(vci, s.node(n.parent.name), dst)
}

// RemoveDestination drops one destination from a stream; the other
// copies are unaffected (principle 6). A leaf just disconnects; an
// interior box first has its subtrees re-homed so they keep playing,
// and stays when the plan refuses that.
func (s *System) RemoveDestination(p *occam.Proc, st *Stream, dst string) error {
	if st.Closed() {
		return ErrClosed
	}
	n := st.Tree.members[dst]
	if _, err := s.rehome(p, st, dst, "departing"); n == nil || err != nil {
		return err
	}
	st.Tree.Remove(dst, nil) // a leaf now: nothing moves
	vci := st.VCIs[dst]
	forget(st, dst)
	s.install(p, st, n.parent, true, nil)
	s.disconnect(p, n, vci)
	return nil
}

// forget removes dst from the stream's VCIs. A Go map that deletes from
// a full group leaves a tombstone there, after which it grows at points
// its random hash seed picks, so a run's allocations would not repeat.
// Clearing the map and refilling it keeps its capacity and leaves none.
// The entries wait on the stack; a tree of more than 64 members spills
// them to the heap.
func forget(st *Stream, dst string) {
	type entry struct {
		dst string
		vci uint32
	}
	var buf [64]entry
	kept := buf[:0]
	for d, vci := range st.VCIs {
		if d != dst {
			kept = append(kept, entry{d, vci})
		}
	}
	clear(st.VCIs)
	for _, e := range kept {
		st.VCIs[e.dst] = e.vci
	}
}

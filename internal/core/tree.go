package core

import (
	"fmt"
	"slices"

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
// box degrades only its own subtree of its own tree, and RepairTree
// re-parents the orphans onto surviving boxes between segments.

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

// treeNode is one box's (or repository's) place in a stream's plan.
// The source is a treeNode too — the plan's root, whose VCI is the
// source-local stream number and whose children are the tree roots.
type treeNode struct {
	*node
	vci      uint32
	tree     int
	parent   *treeNode // who feeds this node; nil only for the root
	children []*treeNode
	// former records every parent this node was moved away from — by a
	// repair, a migration or an interior removal alike. It is the "was
	// this delivery ever routed through box X" history byte-identity
	// checks exclude: a box that is merely hot today may crash later.
	former []*treeNode
}

// TreePlan is the planner's record of one stream's distribution
// tree(s): who feeds whom, over which VCIs, and what moves have
// reshaped it. Streams opened flat (TreeConfig zero value) carry a
// plan too — one where every destination is a direct child of the
// source.
type TreePlan struct {
	cfg  TreeConfig
	root *treeNode // the source
	// order is global placement order — also VCI-allocation order, so
	// replays are deterministic.
	order []*treeNode
	// placed holds each tree's members in placement order; the
	// eligibility scan reads it front to back, which keeps trees
	// near-balanced and deterministic.
	placed  [][]*treeNode
	nodes   map[string]*treeNode // members by name; the root is not one
	nextIdx int                  // round-robin tree striping cursor (survives pulls)
	repairs uint64
}

func newTreePlan(src *node, local uint32, cfg TreeConfig) *TreePlan {
	cfg = cfg.withDefaults()
	return &TreePlan{
		cfg:    cfg,
		root:   &treeNode{node: src, vci: local},
		placed: make([][]*treeNode, cfg.Trees),
		nodes:  make(map[string]*treeNode),
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
	n := t.nodes[dst]
	if n == nil {
		return ""
	}
	return n.parent.name
}

// Depth returns the longest source→leaf hop count (1 = every
// destination fed directly by the source).
func (t *TreePlan) Depth() int {
	max := 0
	for _, n := range t.order {
		d := 0
		for c := n; c.parent != nil; c = c.parent {
			d++
		}
		if d > max {
			max = d
		}
	}
	return max
}

// MaxInteriorCopies returns the largest forwarded-copy count any
// destination box currently carries — the per-hop copy invariant says
// this never exceeds the configured fanout.
func (t *TreePlan) MaxInteriorCopies() int {
	max := 0
	for _, n := range t.order {
		if len(n.children) > max {
			max = len(n.children)
		}
	}
	return max
}

// SourceCopies returns how many copies the source itself sends — the
// origin-pull headline: one per tree, however many viewers.
func (t *TreePlan) SourceCopies() int { return len(t.root.children) }

// Repairs returns how many RepairTree invocations reshaped the plan.
// Migrations and interior removals move subtrees too but are not
// repairs: nothing failed.
func (t *TreePlan) Repairs() uint64 { return t.repairs }

// Relays returns how many forwarded copies box currently carries for
// this plan — 0 means box is a leaf (or not a member). The balancer's
// migration loop uses it to find streams relayed through a hot box.
func (t *TreePlan) Relays(box string) int {
	n := t.nodes[box]
	if n == nil {
		return 0
	}
	return len(n.children)
}

// FeederBoxes returns how many distinct boxes (the source included)
// currently feed at least one member — the placement spread the
// scenario layer's `spread` assert measures.
func (t *TreePlan) FeederBoxes() int {
	feeders := map[*treeNode]bool{}
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
		for _, f := range n.former {
			if f.name == box {
				out = append(out, n.name)
				break
			}
		}
	}
	return out
}

// EverUnder reports whether dst's delivery path ever passed through
// box — through its current parent chain or, after moves, through any
// former parent at any point in the run. Byte-identity assertions use
// it to exclude deliveries a crashed relay could have disturbed.
func (t *TreePlan) EverUnder(dst, box string) bool {
	n := t.nodes[dst]
	if n == nil {
		return false
	}
	seen := map[*treeNode]bool{}
	stack := []*treeNode{n}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ups := m.former
		if m.parent != nil {
			ups = append(append([]*treeNode(nil), ups...), m.parent)
		}
		for _, u := range ups {
			if seen[u] {
				continue
			}
			seen[u] = true
			if u.name == box {
				return true
			}
			stack = append(stack, u)
		}
	}
	return false
}

// under reports whether n sits in root's (current) subtree, root
// included.
func under(n, root *treeNode) bool {
	for c := n; c != nil; c = c.parent {
		if c == root {
			return true
		}
	}
	return false
}

// choose picks who should feed n, a newcomer or an orphan with its
// subtree intact: a member of n's tree that is a box (a repository is
// always a leaf), has spare fanout, is neither the parent n is leaving
// nor inside n's own subtree, and can reach n — same fabric or a
// declared link, bridge links between fabrics included. Without a
// placer the first such member in placement order wins; with one, the
// placer's pick among all of them. When no member qualifies the source
// feeds n itself.
func (s *System) choose(plan *TreePlan, n *treeNode) *treeNode {
	cands := plan.placed[n.tree]
	if plan.cfg.Fanout <= 0 {
		// A flat plan has no eligible relay; skipping the scan keeps a
		// tannoy to n destinations O(n).
		cands = nil
	}
	var elig []*treeNode
	for _, c := range cands {
		if len(c.children) >= plan.cfg.Fanout || c.box == nil || c == n.parent || under(c, n) {
			continue
		}
		if _, ok := s.edge(c.node, n.node); !ok {
			continue
		}
		if s.placer == nil {
			return c // first-fit needs no further scanning
		}
		elig = append(elig, c)
	}
	if len(elig) == 0 {
		return plan.root
	}
	names := make([]string, len(elig))
	for i, c := range elig {
		names[i] = c.name
	}
	return elig[s.placer.Pick(names)]
}

// adopt gives n a feeder and moves its circuit there: choose, rewire,
// link. A newcomer (no parent yet) has its circuit opened; an orphan
// keeps the installed route when old and new feeder both reach it
// across its fabric, and otherwise has the old circuit closed and the
// new one opened. The caller reinstalls the new feeder's switch route.
func (s *System) adopt(p *occam.Proc, st *Stream, n *treeNode) {
	old, parent := n.parent, s.choose(st.Tree, n)
	if old == nil {
		s.openCircuit(p, n.vci, parent.node, n.node, st.Video)
	} else {
		if !s.sameRoute(old.node, parent.node, n.node) {
			s.closeCircuit(n.vci, old.node, n.node)
			s.openCircuit(p, n.vci, parent.node, n.node, st.Video)
		}
		n.former = append(n.former, old)
	}
	n.parent = parent
	parent.children = append(parent.children, n)
}

// attach makes dst a member of the stream's plan — round-robin onto
// the next tree, a fresh VCI, a feeder — and returns its node. A name
// that is already a member is attached once: nil.
func (s *System) attach(p *occam.Proc, st *Stream, dst string) *treeNode {
	plan := st.Tree
	if plan.nodes[dst] != nil {
		return nil
	}
	n := &treeNode{node: s.node(dst), vci: s.allocVCI(), tree: plan.nextIdx % plan.cfg.Trees}
	plan.nextIdx++
	s.adopt(p, st, n)
	plan.placed[n.tree] = append(plan.placed[n.tree], n)
	plan.order = append(plan.order, n)
	plan.nodes[dst] = n
	st.VCIs[dst] = n.vci
	return n
}

// install installs (or re-installs) n's switch route to match its
// place in the plan. A destination plays the stream locally and, when
// it has children, forwards one copy per child VCI — the local
// re-split of principle 5. The source only sends: one copy per child,
// listed in placement order whatever order they were adopted in.
// reinstall keeps the route at the front of the degrade order
// (principle 3).
func (s *System) install(p *occam.Proc, st *Stream, n *treeNode, reinstall bool) {
	if n.box == nil {
		return // repositories take delivery straight off the circuit
	}
	r := box.Route{Stream: n.vci, Video: st.Video}
	if n == st.Tree.root {
		r.Outputs = []box.Output{box.OutNetwork}
		for _, m := range st.Tree.order {
			if m.parent == n {
				r.NetVCIs = append(r.NetVCIs, m.vci)
			}
		}
	} else {
		local := box.OutSpeaker
		if st.Video {
			local = box.OutDisplay
		}
		r.Outputs = []box.Output{local}
		if len(n.children) > 0 {
			r.Outputs = append(r.Outputs, box.OutNetwork)
			r.Relay = true
			for _, c := range n.children {
				r.NetVCIs = append(r.NetVCIs, c.vci)
			}
		}
	}
	if reinstall {
		r.Opened = occam.Time(1)
	}
	n.box.SetRoute(p, r)
}

// SendAudioTree opens a one-way audio stream distributed over
// replication trees instead of per-viewer circuits from the source.
// cfg.Fanout 0 degenerates to the flat tannoy of SendAudio.
func (s *System) SendAudioTree(p *occam.Proc, cfg TreeConfig, from string, to ...string) *Stream {
	return s.sendTree(p, cfg, from, box.CameraStream{}, false, to)
}

// sendTree is the shared planner apply for audio and video streams:
// attach every destination (plan, VCI, feeder→child circuit) in
// destination order, install destination routes (interior boxes
// re-split), then the source route — one copy per tree — and start the
// media source last, so every relay is routed before data flows.
func (s *System) sendTree(p *occam.Proc, cfg TreeConfig, from string, cs box.CameraStream, video bool, to []string) *Stream {
	src := s.node(from)
	src.nextStream++
	st := &Stream{From: from, Local: src.nextStream, Video: video, VCIs: make(map[string]uint32)}
	plan := newTreePlan(src, st.Local, cfg)
	st.Tree = plan
	for _, dst := range to {
		s.attach(p, st, dst)
	}
	// Routes go in after every child VCI exists, destination order.
	for _, n := range plan.order {
		s.install(p, st, n, false)
	}
	if plan.cfg.Fanout > 0 {
		s.observeTree(st)
	}
	s.install(p, st, plan.root, false)
	if video {
		cs.Stream = st.Local
		src.box.StartCamera(p, cs)
	} else {
		src.box.StartMic(p, st.Local)
	}
	return st
}

// observeTree registers the row of a planned (non-flat) tree: depth,
// the interior copy high-water, and repairs.
func (s *System) observeTree(st *Stream) {
	treeTable.Register(s.Obs, st.Tree, obs.L("tree", fmt.Sprintf("%s.%d", st.From, st.Local)))
}

// treeTable is a planned tree's shape and repair count.
var treeTable = obs.NewTable(
	obs.GaugeOf("tree_depth", func(t *TreePlan) float64 { return float64(t.Depth()) }),
	obs.GaugeOf("tree_copies_max", func(t *TreePlan) float64 { return float64(t.MaxInteriorCopies()) }),
	obs.CounterOf("tree_repairs_total", func(t *TreePlan) uint64 { return t.repairs }),
)

// Pull grafts late joiners onto an open stream: each destination pulls
// one copy from the chosen already-carrying box (spare fanout,
// reachable, scanned in placement order) — the source's own port never
// gains another circuit unless nothing else can reach the joiner. A
// destination that is already a member is left as it is.
func (s *System) Pull(p *occam.Proc, st *Stream, dsts ...string) {
	for _, dst := range dsts {
		if n := s.attach(p, st, dst); n != nil {
			s.install(p, st, n, false)
			s.install(p, st, n.parent, true)
		}
	}
}

// rehome moves every subtree from under from onto other feeders while
// the stream plays: orphan the children, reinstall from once so it
// stops forwarding, then adopt each orphan — its whole subtree intact —
// and reinstall whoever took it. The change applies between segments
// (principle 6). why says what is wrong with from, for the trace.
// Returns how many subtrees moved; 0 when from is nil or a leaf.
func (s *System) rehome(p *occam.Proc, st *Stream, from *treeNode, why string) int {
	if from == nil || len(from.children) == 0 {
		return 0
	}
	orphans := from.children
	from.children = nil
	s.install(p, st, from, true)
	for _, o := range orphans {
		s.adopt(p, st, o)
		s.install(p, st, o.parent, true)
	}
	s.Obs.Tracer().Emit(obs.EvRepair, "core.tree", st.Local,
		fmt.Sprintf("re-homed %d subtrees around %s %s", len(orphans), why, from.name))
	return len(orphans)
}

// RepairTree re-homes the orphaned children of a failed interior box
// onto surviving boxes of their own tree, falling back to the source,
// and books it as a repair. Returns how many orphans were re-homed; 0
// (and no repair booked) when failed relays nothing for this stream.
func (s *System) RepairTree(p *occam.Proc, st *Stream, failed string) int {
	moved := s.rehome(p, st, st.Tree.nodes[failed], "failed")
	if moved > 0 {
		st.Tree.repairs++
	}
	return moved
}

// MigrateTree is the balancer's verb: hot is healthy but overloaded, so
// it stops relaying this stream — its subtrees move exactly as a
// repair moves them — and keeps its own playout. Nothing failed, so no
// repair is booked. Returns how many subtrees moved.
func (s *System) MigrateTree(p *occam.Proc, st *Stream, hot string) int {
	return s.rehome(p, st, st.Tree.nodes[hot], "hot")
}

// Close shuts a stream down entirely: stop the media source, remove
// the source route, then every destination's route and its feeding
// circuit, in placement order.
func (s *System) Close(p *occam.Proc, st *Stream) {
	plan := st.Tree
	src := plan.root.box
	if st.Video {
		src.StopCamera(p, st.Local)
	} else {
		src.StopMic(p)
	}
	src.CloseRoute(p, st.Local)
	for _, n := range plan.order {
		s.disconnect(p, n)
	}
}

// disconnect removes n's switch route and the circuit that feeds it.
func (s *System) disconnect(p *occam.Proc, n *treeNode) {
	if n.box != nil {
		n.box.CloseRoute(p, n.vci)
	}
	s.closeCircuit(n.vci, n.parent.node, n.node)
}

// RemoveDestination drops one destination from a stream; the other
// copies are unaffected (principle 6). A leaf just disconnects; an
// interior box first has its subtrees re-homed so they keep playing.
func (s *System) RemoveDestination(p *occam.Proc, st *Stream, dst string) {
	plan := st.Tree
	n := plan.nodes[dst]
	if n == nil {
		return
	}
	s.rehome(p, st, n, "departing")
	delete(plan.nodes, dst)
	delete(st.VCIs, dst)
	plan.order = without(plan.order, n)
	plan.placed[n.tree] = without(plan.placed[n.tree], n)
	n.parent.children = without(n.parent.children, n)
	s.install(p, st, n.parent, true)
	s.disconnect(p, n)
}

// without removes n from list, keeping the order of the rest.
func without(list []*treeNode, n *treeNode) []*treeNode {
	return slices.DeleteFunc(list, func(m *treeNode) bool { return m == n })
}

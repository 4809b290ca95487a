package core

import (
	"fmt"

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

// treeNode is one destination's place in a distribution tree.
type treeNode struct {
	name     string
	vci      uint32
	tree     int
	parent   *treeNode // nil: fed directly by the source
	children []*treeNode
	// former records every parent this node was re-homed away from by
	// RepairTree — the "was this delivery ever routed through box X"
	// history that byte-identity checks exclude.
	former []*treeNode
}

// TreePlan is the planner's record of one stream's distribution
// tree(s): who feeds whom, over which VCIs, and what repairs have
// reshaped it. Streams opened flat (TreeConfig zero value) carry a
// plan too — one where every destination is a direct child of the
// source.
type TreePlan struct {
	cfg  TreeConfig
	from string
	// order is global placement order — also VCI-allocation order, so
	// replays are deterministic.
	order []*treeNode
	// placed holds each tree's members in placement order; attachment
	// scans it front to back, which keeps trees near-balanced and
	// deterministic.
	placed  [][]*treeNode
	nodes   map[string]*treeNode
	nextIdx int // round-robin tree striping cursor (survives pulls)
	repairs uint64
}

func newTreePlan(from string, cfg TreeConfig) *TreePlan {
	cfg = cfg.withDefaults()
	return &TreePlan{
		cfg:    cfg,
		from:   from,
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

// Parent returns who currently feeds dst ("" when the source does, or
// when dst is not a member).
func (t *TreePlan) Parent(dst string) string {
	n := t.nodes[dst]
	if n == nil || n.parent == nil {
		return ""
	}
	return n.parent.name
}

// Depth returns the longest source→leaf hop count (1 = every
// destination fed directly by the source).
func (t *TreePlan) Depth() int {
	max := 0
	for _, n := range t.order {
		d := 1
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
func (t *TreePlan) SourceCopies() int {
	n := 0
	for _, c := range t.order {
		if c.parent == nil {
			n++
		}
	}
	return n
}

// Repairs returns how many RepairTree invocations reshaped the plan.
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
	feeders := map[string]bool{}
	for _, n := range t.order {
		feeders[t.feederName(n)] = true
	}
	return len(feeders)
}

// RehomedFrom returns the members RepairTree ever re-parented away
// from box, in placement order.
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
// box — through its current parent chain or, after repairs, through
// any former parent at any point in the run. Byte-identity assertions
// use it to exclude deliveries a crashed relay could have disturbed.
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

// connectable reports whether openCircuit(a→b) would succeed: the two
// share a fabric, or a directional link path is declared.
func (s *System) connectable(a, b string) bool {
	if s.sameFabric(a, b) {
		return true
	}
	_, ok := s.paths[a+"->"+b]
	return ok
}

// pickCandidate chooses among the eligible candidate parents: the
// installed placer's best-ranked box, or — with no placer — the first
// in placement order (first-fit). elig holds distinct box names (tree
// members are unique), so the ranked name maps back to one node.
func (s *System) pickCandidate(elig []*treeNode) *treeNode {
	if len(elig) == 0 {
		return nil
	}
	if s.placer == nil {
		return elig[0]
	}
	names := make([]string, len(elig))
	for i, c := range elig {
		names[i] = c.name
	}
	best := s.placer.RankBoxes(names)[0]
	for _, c := range elig {
		if c.name == best {
			return c
		}
	}
	return elig[0]
}

// planAttach places one more destination: round-robin onto the next
// tree, then under an already-placed box in that tree with spare
// fanout that can reach it (same fabric or a declared link — bridge
// links between fabrics are found the same way). Without a placer the
// first such box in placement order wins; with one, the least-loaded.
// When nothing placed can host it, the destination pulls straight
// from the source.
func (s *System) planAttach(plan *TreePlan, dst string) *treeNode {
	t := plan.nextIdx % plan.cfg.Trees
	plan.nextIdx++
	n := &treeNode{name: dst, tree: t}
	cands := plan.placed[t]
	if plan.cfg.Fanout <= 0 {
		// A flat plan has no eligible relay; skipping the scan keeps a
		// tannoy to n destinations O(n).
		cands = nil
	}
	var elig []*treeNode
	for _, cand := range cands {
		// Only boxes re-split; a repository member is always a leaf.
		if _, isBox := s.boxes[cand.name]; !isBox {
			continue
		}
		if len(cand.children) < plan.cfg.Fanout && s.connectable(cand.name, dst) {
			elig = append(elig, cand)
			if s.placer == nil {
				break // first-fit needs no further scanning
			}
		}
	}
	if cand := s.pickCandidate(elig); cand != nil {
		n.parent = cand
		cand.children = append(cand.children, n)
	}
	if n.parent == nil && !s.connectable(plan.from, dst) {
		panic(fmt.Sprintf("core: tree: no box can reach %s from %s's tree %d (declare a link or shared fabric)",
			dst, plan.from, t))
	}
	plan.placed[t] = append(plan.placed[t], n)
	plan.order = append(plan.order, n)
	plan.nodes[dst] = n
	return n
}

// feederName returns who opens the circuit to n.
func (t *TreePlan) feederName(n *treeNode) string {
	if n.parent == nil {
		return t.from
	}
	return n.parent.name
}

// installNode installs (or re-installs) a destination box's switch
// route to match its place in the tree: local playout plus, when it
// has children, one forwarded copy per child VCI — the local re-split
// of principle 5. reinstall keeps the route's original age
// (principle 3).
func (s *System) installNode(p *occam.Proc, st *Stream, n *treeNode, reinstall bool) {
	db, ok := s.boxes[n.name]
	if !ok {
		return // repositories take delivery straight off the circuit
	}
	local := box.OutSpeaker
	if st.Video {
		local = box.OutDisplay
	}
	r := box.Route{Stream: n.vci, Outputs: []box.Output{local}, Video: st.Video}
	if len(n.children) > 0 {
		r.Outputs = append(r.Outputs, box.OutNetwork)
		r.Relay = true
		for _, c := range n.children {
			r.NetVCIs = append(r.NetVCIs, c.vci)
		}
	}
	if reinstall {
		r.Opened = occam.Time(1)
	}
	db.SetRoute(p, r)
	if len(n.children) == 0 && reinstall {
		// SetRoute only replaces the fan-out list when it is non-empty;
		// a node whose last child was taken away must stop copying.
		db.SetNetCopies(p, n.vci, nil)
	}
}

// installSource installs (or re-installs) the source route: one copy
// per tree root, in placement order. reinstall keeps the route's
// original age (principle 3), as in installNode.
func (s *System) installSource(p *occam.Proc, st *Stream, reinstall bool) {
	r := box.Route{Stream: st.Local, Outputs: []box.Output{box.OutNetwork}, Video: st.Video}
	for _, n := range st.Tree.order {
		if n.parent == nil {
			r.NetVCIs = append(r.NetVCIs, n.vci)
		}
	}
	if reinstall {
		r.Opened = occam.Time(1)
	}
	src := s.boxes[st.From]
	src.SetRoute(p, r)
	if len(r.NetVCIs) == 0 && reinstall {
		// SetRoute leaves the fan-out list alone when handed none: a
		// source whose last root was taken away must stop copying.
		src.SetNetCopies(p, st.Local, nil)
	}
}

// SendAudioTree opens a one-way audio stream distributed over
// replication trees instead of per-viewer circuits from the source.
// cfg.Fanout 0 degenerates to the flat tannoy of SendAudio.
func (s *System) SendAudioTree(p *occam.Proc, cfg TreeConfig, from string, to ...string) *Stream {
	return s.sendTree(p, cfg, from, box.CameraStream{}, false, to)
}

// sendTree is the shared planner apply for audio and video streams:
// plan every destination, allocate VCIs and open parent→child circuits
// in destination order, install destination routes (interior boxes
// re-split), then the source route — one copy per tree — and start the
// media source last, so every relay is routed before data flows.
func (s *System) sendTree(p *occam.Proc, cfg TreeConfig, from string, cs box.CameraStream, video bool, to []string) *Stream {
	src := s.boxes[from]
	st := &Stream{From: from, Local: s.allocStream(from), Video: video, VCIs: make(map[string]uint32)}
	plan := newTreePlan(from, cfg)
	st.Tree = plan
	for _, dst := range to {
		n := s.planAttach(plan, dst)
		n.vci = s.allocVCI()
		st.VCIs[dst] = n.vci
		s.openCircuit(p, n.vci, plan.feederName(n), dst, video)
	}
	// Routes go in after every child VCI exists, destination order.
	for _, n := range plan.order {
		s.installNode(p, st, n, false)
	}
	if plan.cfg.Fanout > 0 {
		s.observeTree(st)
	}
	s.installSource(p, st, false)
	if video {
		cs.Stream = st.Local
		src.StartCamera(p, cs)
	} else {
		src.StartMic(p, st.Local)
	}
	return st
}

// observeTree registers the per-tree gauges for planned (non-flat)
// trees: depth, the interior copy high-water, and repairs.
func (s *System) observeTree(st *Stream) {
	plan := st.Tree
	lb := obs.L("tree", fmt.Sprintf("%s.%d", st.From, st.Local))
	s.Obs.GaugeFunc("tree_depth", func() float64 { return float64(plan.Depth()) }, lb)
	s.Obs.GaugeFunc("tree_copies_max", func() float64 { return float64(plan.MaxInteriorCopies()) }, lb)
	s.Obs.CounterFunc("tree_repairs_total", func() uint64 { return plan.repairs }, lb)
}

// Pull grafts late joiners onto an open tree stream: each destination
// pulls one copy from the best already-carrying box (spare fanout,
// reachable, scanned in placement order) — the source's own port never
// gains another circuit unless nothing else can reach the joiner.
func (s *System) Pull(p *occam.Proc, st *Stream, dsts ...string) {
	plan := st.Tree
	for _, dst := range dsts {
		n := s.planAttach(plan, dst)
		n.vci = s.allocVCI()
		st.VCIs[dst] = n.vci
		s.openCircuit(p, n.vci, plan.feederName(n), dst, st.Video)
		s.installNode(p, st, n, false)
		if n.parent == nil {
			s.installSource(p, st, true)
		} else {
			s.installNode(p, st, n.parent, true)
		}
	}
}

// RepairTree re-homes the orphaned children of a failed interior box:
// each orphan (its whole subtree intact) is re-parented onto the first
// surviving box in its own tree with spare fanout that can reach it
// (the least-loaded such box when a placer is installed), falling
// back to the source. The balancer's migration loop calls this too —
// a migration is a repair minus the fault: the "failed" box is merely
// hot, keeps its own playout, and only stops relaying. Circuits are rewired mid-stream — on a
// shared fabric the VCI already routes to the orphan's port, so the
// new parent simply starts sending on it (principle 6: the change
// applies between segments); across a bridge the old circuit closes
// and a new one opens. Returns how many orphans were re-homed.
func (s *System) RepairTree(p *occam.Proc, st *Stream, failed string) int {
	plan := st.Tree
	fn := plan.nodes[failed]
	if fn == nil || len(fn.children) == 0 {
		return 0
	}
	orphans := fn.children
	fn.children = nil
	s.installNode(p, st, fn, true) // stop the failed box's forwarded copies
	for _, o := range orphans {
		var elig []*treeNode
		for _, cand := range plan.placed[o.tree] {
			if cand == fn || under(cand, o) {
				continue // never adopt into the orphan's own subtree
			}
			if _, isBox := s.boxes[cand.name]; !isBox {
				continue
			}
			if len(cand.children) < plan.cfg.Fanout && s.connectable(cand.name, o.name) {
				elig = append(elig, cand)
				if s.placer == nil {
					break
				}
			}
		}
		parent := s.pickCandidate(elig)
		feeder := plan.from
		if parent != nil {
			feeder = parent.name
		} else if !s.connectable(plan.from, o.name) {
			panic(fmt.Sprintf("core: tree repair: no surviving box reaches %s (was under %s)", o.name, failed))
		}
		// The fabric routes a VCI by value, not by sender: when both the
		// failed and the new feeder reach the orphan over the same
		// fabric, the installed route is already right. Any other edge
		// change closes the old circuit and opens the new.
		if !(s.sameFabric(failed, o.name) && s.sameFabric(feeder, o.name)) {
			s.closeCircuit(o.vci, failed, o.name)
			s.openCircuit(p, o.vci, feeder, o.name, st.Video)
		}
		o.former = append(o.former, fn)
		o.parent = parent
		if parent == nil {
			s.installSource(p, st, true)
		} else {
			parent.children = append(parent.children, o)
			s.installNode(p, st, parent, true)
		}
	}
	plan.repairs++
	s.Obs.Tracer().Emit(obs.EvRepair, "core.tree", st.Local,
		fmt.Sprintf("re-homed %d subtrees around failed %s", len(orphans), failed))
	return len(orphans)
}

// Close shuts a stream down entirely: stop the media source, remove
// the source route, then every destination's route and its feeding
// circuit, in placement order.
func (s *System) Close(p *occam.Proc, st *Stream) {
	src := s.boxes[st.From]
	if st.Video {
		src.StopCamera(p, st.Local)
	} else {
		src.StopMic(p)
	}
	src.CloseRoute(p, st.Local)
	plan := st.Tree
	for _, n := range plan.order {
		if db, ok := s.boxes[n.name]; ok {
			db.CloseRoute(p, n.vci)
		}
		s.closeCircuit(n.vci, plan.feederName(n), n.name)
	}
}

// RemoveDestination drops one destination from a stream; the other
// copies are unaffected (principle 6). A leaf just disconnects; an
// interior box first has its children re-homed (the repair machinery,
// minus the fault) so its subtree keeps playing.
func (s *System) RemoveDestination(p *occam.Proc, st *Stream, dst string) {
	plan := st.Tree
	n := plan.nodes[dst]
	if n == nil {
		return
	}
	if len(n.children) > 0 {
		s.RepairTree(p, st, dst)
	}
	feeder := plan.feederName(n)
	delete(plan.nodes, dst)
	plan.drop(n)
	if parent := n.parent; parent == nil {
		s.installSource(p, st, true)
	} else {
		for i, c := range parent.children {
			if c == n {
				parent.children = append(parent.children[:i], parent.children[i+1:]...)
				break
			}
		}
		s.installNode(p, st, parent, true)
	}
	delete(st.VCIs, dst)
	if db, ok := s.boxes[dst]; ok {
		db.CloseRoute(p, n.vci)
	}
	s.closeCircuit(n.vci, feeder, dst)
}

// drop removes n from the placement lists.
func (t *TreePlan) drop(n *treeNode) {
	for i, m := range t.order {
		if m == n {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	for i, m := range t.placed[n.tree] {
		if m == n {
			t.placed[n.tree] = append(t.placed[n.tree][:i], t.placed[n.tree][i+1:]...)
			break
		}
	}
}

// Package core is the top-level API of the Pandora reproduction: it
// assembles boxes, repositories and the ATM network on one
// virtual-time runtime and exposes the operations the paper's
// applications used (§4.1) — video phone calls, multi-way
// conferences, shout/tannoy one-way streams, and recording/playback —
// while the eight design principles (§2) do their work underneath.
//
// Typical use:
//
//	sys := core.NewSystem()
//	a := sys.AddBox(box.Config{Name: "a", Mic: workload.NewSpeech(1, 12000)})
//	b := sys.AddBox(box.Config{Name: "b"})
//	sys.Connect("a", "b", atm.LinkConfig{Bandwidth: 100_000_000})
//	sys.Control(func(p *occam.Proc) { sys.Conference(p, "a", "b") }) // a call
//	sys.RunFor(10 * time.Second)
//
// Ownership: core itself never touches segment wires — it plumbs
// boxes, fabrics and links together and installs routes. The
// invariant it preserves by construction is that every box (and
// repository) keeps its own segment.WirePool: circuits and fabric
// ports move wire *references* from a sender's pool to a receiver,
// and the receiver's single copy-in at its pool boundary is the only
// byte copy on the path (see internal/segment and internal/atm for
// the refcount rules core's wiring relies on).
package core

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/atm"
	"repro/internal/box"
	"repro/internal/degrade"
	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/repository"
)

// Stream identifies one stream: the source-local stream number and the
// VCI used at each destination. A closed stream keeps its figures, not
// its state: its source, Video, each destination's VCI, and what its
// readers ask of its plan (EverUnder, FeederBoxes, the tree row).
type Stream struct {
	From  string
	Local uint32            // stream number at the source box
	VCIs  map[string]uint32 // destination name → VCI (= stream number there)
	Video bool
	// Tree is the stream's distribution plan while it is open: who feeds
	// whom. Streams opened by SendAudio/SendVideo carry the flat plan
	// (every destination fed by the source; to a repository, the flat
	// plan whose one member is the repository); SendAudioTree carries
	// real replication trees. Close releases it: nil once closed.
	Tree *TreePlan
	kept *keptPlan // what Close kept of a tree's plan; nil for a flat one
}

// keptPlan is what a closed stream keeps of a tree's plan: the figures
// read after the run.
type keptPlan struct {
	// under holds, for each destination that ever sat below a relay,
	// the relays it sat under at any time; a destination only the source
	// ever fed has no entry.
	under                  map[string][]string
	feeders, depth, copies int
	repairs                uint64
}

// Dsts returns the stream's destinations, sorted.
func (st *Stream) Dsts() []string { return slices.Sorted(maps.Keys(st.VCIs)) }

// Closed reports whether Close has run on the stream.
func (st *Stream) Closed() bool { return st.Tree == nil }

// EverUnder is TreePlan.EverUnder, for an open or a closed stream.
func (st *Stream) EverUnder(dst, box string) bool {
	if st.Tree != nil {
		return st.Tree.EverUnder(dst, box)
	}
	_, member := st.VCIs[dst]
	return member && (box == st.From || st.kept != nil && slices.Contains(st.kept.under[dst], box))
}

// FeederBoxes is TreePlan.FeederBoxes, for an open or a closed stream.
func (st *Stream) FeederBoxes() int {
	switch {
	case st.Tree != nil:
		return st.Tree.FeederBoxes()
	case st.kept != nil:
		return st.kept.feeders
	}
	return min(1, len(st.VCIs)) // a flat plan: the source fed them all
}

// System is a collection of boxes and repositories on one network.
type System struct {
	RT  *occam.Runtime
	Net *atm.Network
	// Obs is the system-wide observability registry: every box, link
	// and buffer registers its counters here, stamped with the
	// runtime's virtual clock.
	Obs *obs.Registry

	// nodes is the one table of endpoints: every box and repository,
	// with where it hangs off a fabric and the link paths that leave it.
	nodes   map[string]*node
	fabrics map[string]*fabric.Fabric

	nextVCI uint32
	rawVCIs map[uint32]bool // opened on a caller's VCI: allocVCI skips them
	placer  Placer
}

// node is one endpoint on the network — a box or a repository — and
// everything the control plane knows about it.
type node struct {
	name string
	box  *box.Box               // nil for a repository
	repo *repository.Repository // nil for a box
	host *atm.Host

	// Set by AttachFabric: the node's fabric, its port there, and the
	// mux that steers bridge VCIs past the port onto links.
	fab  *fabric.Fabric
	port *fabric.Port
	mux  *bridgeMux

	links      map[string][]*atm.Link // peer name → the directional path to it
	nextStream uint32                 // last source-local stream number handed out
	ctrl       *degrade.Controller    // the box's overload controller, once EnableDegradation ran
	portCtrl   *degrade.Controller    // the port's, likewise
}

// Placer is the placement seam the balancer control plane installs
// (internal/balancer implements it; core never imports the balancer).
// When a placer is set, every move — attach, pull, repair, migration,
// interior removal — adopts the least loaded of the eligible boxes by
// the placer's Load, the first in placement order of equals, instead of
// the first outright. A placer must be deterministic: the same box at
// the same virtual time has the same load, or replays stop being
// byte-identical.
type Placer interface {
	// Load returns the box's load score; lower is better.
	Load(box string) float64
	// Placed books one placement on the box core picked.
	Placed(box string)
}

// SetPlacer installs (or, with nil, removes) the placement policy.
func (s *System) SetPlacer(pl Placer) { s.placer = pl }

// BoxNames returns every box name (repositories excluded), sorted.
func (s *System) BoxNames() []string {
	out := make([]string, 0, len(s.nodes))
	for name, n := range s.nodes {
		if n.box != nil {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// NewSystem returns an empty system.
func NewSystem() *System {
	rt := occam.NewRuntime()
	s := &System{
		RT:      rt,
		Net:     atm.New(rt),
		Obs:     obs.New(rt),
		nodes:   make(map[string]*node),
		fabrics: make(map[string]*fabric.Fabric),
		nextVCI: 1000,
		rawVCIs: make(map[uint32]bool),
	}
	s.Net.Observe(s.Obs)
	return s
}

// addNode enters a new endpoint in the node table; names are unique
// across boxes and repositories.
func (s *System) addNode(name string) *node {
	if _, dup := s.nodes[name]; dup {
		panic("core: duplicate node " + name)
	}
	n := &node{name: name, links: make(map[string][]*atm.Link)}
	s.nodes[name] = n
	return n
}

// node returns the named endpoint; the control plane cannot act on a
// name nobody added.
func (s *System) node(name string) *node {
	n, ok := s.nodes[name]
	if !ok {
		panic("core: unknown node " + name)
	}
	return n
}

// lookup is node for the read-only accessors: an unknown name reads as
// an endpoint with nothing attached.
func (s *System) lookup(name string) *node {
	if n, ok := s.nodes[name]; ok {
		return n
	}
	return &node{name: name}
}

// AddBox creates a Pandora box. cfg.Name must be unique and non-empty.
func (s *System) AddBox(cfg box.Config) *box.Box {
	if cfg.Name == "" {
		panic("core: box needs a name")
	}
	n := s.addNode(cfg.Name)
	if cfg.Obs == nil {
		cfg.Obs = s.Obs
	}
	n.box = box.New(s.RT, s.Net, cfg)
	n.host = n.box.Host()
	return n.box
}

// AddRepository creates a repository node.
func (s *System) AddRepository(name string) *repository.Repository {
	n := s.addNode(name)
	n.repo = repository.New(s.RT, s.Net, name)
	n.host = n.repo.Host()
	return n.repo
}

// Box returns a box by name (nil if unknown).
func (s *System) Box(name string) *box.Box { return s.lookup(name).box }

// Repository returns a repository by name (nil if unknown).
func (s *System) Repository(name string) *repository.Repository { return s.lookup(name).repo }

// Connect joins two nodes with a symmetric pair of links.
func (s *System) Connect(a, b string, cfg atm.LinkConfig) {
	s.ConnectPath(a, b, []atm.LinkConfig{cfg})
}

// ConnectPath joins two nodes through a chain of links in each
// direction — the bridged multi-network paths of the SuperJanet
// trials (§3.7.2). Each config becomes one hop.
func (s *System) ConnectPath(a, b string, cfgs []atm.LinkConfig) {
	na, nb := s.node(a), s.node(b)
	var fwd, rev []*atm.Link
	for i, cfg := range cfgs {
		fwd = append(fwd, s.Net.AddLink(fmt.Sprintf("%s-%s.%d", a, b, i), cfg))
		rev = append(rev, s.Net.AddLink(fmt.Sprintf("%s-%s.%d", b, a, i), cfg))
	}
	na.links[b] = fwd
	nb.links[a] = rev
}

// AddFabric creates a named switching fabric. Nodes join it with
// AttachFabric; circuits between two attached nodes are then routed
// through the fabric instead of point-to-point links.
func (s *System) AddFabric(name string, cfg fabric.Config) *fabric.Fabric {
	if _, dup := s.fabrics[name]; dup {
		panic("core: duplicate fabric " + name)
	}
	f := fabric.New(s.RT, name, cfg)
	f.Observe(s.Obs)
	s.fabrics[name] = f
	return f
}

// AttachFabric connects an existing node to a fabric: the node's host
// sends through its own fabric port from now on. A node attaches to at
// most one fabric. Circuits opened over declared links (ConnectPath) —
// the bridges that stitch fabrics together — keep working: a bridge
// mux in front of the port steers bridge VCIs onto the links and
// everything else into the fabric. Returns the node's port.
func (s *System) AttachFabric(fabricName, name string) *fabric.Port {
	f, ok := s.fabrics[fabricName]
	if !ok {
		panic("core: unknown fabric " + fabricName)
	}
	n := s.node(name)
	if n.fab != nil {
		panic("core: node " + name + " already fabric-attached")
	}
	prev := n.host.Transport()
	n.fab, n.port = f, f.Attach(n.host)
	n.mux = &bridgeMux{port: n.port, links: prev, bridge: make(map[uint32]bool)}
	n.host.SetTransport(n.mux)
	return n.port
}

// bridgeMux lets a fabric-attached node also drive point-to-point
// bridge links toward other fabrics: VCIs registered as bridges go out
// over the host's circuit table, everything else through the
// fabric port. Registration happens in openCircuit/closeCircuit, on
// the control plane; the data path is one map lookup.
type bridgeMux struct {
	port   atm.Transport
	links  atm.Transport
	bridge map[uint32]bool
}

func (m *bridgeMux) TransportName() string { return "bridge+" + m.port.TransportName() }

func (m *bridgeMux) Send(p *occam.Proc, msg atm.Message) error {
	if m.bridge[msg.VCI] {
		return m.links.Send(p, msg)
	}
	return m.port.Send(p, msg)
}

// FabricPort returns node's fabric port (nil if not attached).
func (s *System) FabricPort(node string) *fabric.Port { return s.lookup(node).port }

// Fabric returns a fabric by name (nil if unknown).
func (s *System) Fabric(name string) *fabric.Fabric { return s.fabrics[name] }

// Control runs fn as a high-priority control process (the host
// workstation's interface code). Call before or between Run calls.
func (s *System) Control(fn func(p *occam.Proc)) {
	s.RT.Go("control", nil, occam.High, fn)
}

// RunFor advances the whole system by d of virtual time.
func (s *System) RunFor(d time.Duration) error { return s.RT.RunFor(d) }

// Shutdown terminates every process.
func (s *System) Shutdown() { s.RT.Shutdown() }

// allocVCI hands out the VCI after the last, skipping those opened raw.
func (s *System) allocVCI() uint32 {
	s.nextVCI++
	for s.rawVCIs[s.nextVCI] {
		s.nextVCI++
	}
	return s.nextVCI
}

// SendAudio opens a one-way audio stream (the "shout" of §4.1) from
// one box's microphone to each named destination's speaker (several
// destinations make it a "tannoy"). It routes through the tree
// planner's flat plan — every destination fed by one circuit from the
// source, the paper's original configuration. SendAudioTree replaces
// the flat plan with replication trees when the fan-out outgrows the
// source port. Returns the stream handle.
func (s *System) SendAudio(p *occam.Proc, from string, to ...string) *Stream {
	return mustStream(s.sendTree(p, TreeConfig{}, from, box.CameraStream{}, false, to))
}

// SendVideo opens a one-way video stream to each destination's
// display (flat plan, as SendAudio).
func (s *System) SendVideo(p *occam.Proc, from string, cs box.CameraStream, to ...string) *Stream {
	return mustStream(s.sendTree(p, TreeConfig{}, from, cs, true, to))
}

// mustStream is a flat stream's open: a destination its source cannot
// reach is the caller's bug, and panics with the plan's error.
func mustStream(st *Stream, err error) *Stream {
	if err != nil {
		panic("core: " + err.Error())
	}
	return st
}

// Conference opens a full mesh of audio streams between the members;
// every box mixes the other members' streams (§2.0: "Their
// accompanying audio streams are mixed by software in real-time on
// the destination transputer").
func (s *System) Conference(p *occam.Proc, members ...string) []*Stream {
	streams := make([]*Stream, len(members))
	to := make([]string, 0, 8) // on the stack, unless a conference outgrows it
	for i, from := range members {
		to = to[:0]
		for _, other := range members {
			if other != from {
				to = append(to, other)
			}
		}
		streams[i] = s.SendAudio(p, from, to...)
	}
	return streams
}

// PlayTo plays a repository recording to a box's speaker and returns
// the VCI used (the stream number at the destination).
func (s *System) PlayTo(p *occam.Proc, repoName string, rec *repository.Recording, to string) uint32 {
	vci := s.allocVCI()
	repo, dst := s.node(repoName), s.node(to)
	s.openCircuit(p, vci, repo, dst, false)
	dst.box.SetRoute(p, box.Route{Stream: vci, Outputs: []box.Output{box.OutSpeaker}})
	repo.repo.Playback(rec, vci)
	return vci
}

// InjectLinkFaults attaches spec's link-fault schedule to every
// network link and every fabric port, each with a seed derived from
// the link's or port's name so schedules are independent but
// reproducible. Call before RunFor. Port names (e.g. "fab.p03") work
// in spec target patterns exactly like link names, so a spec can
// fault one port of a fabric and leave the rest alone.
func (s *System) InjectLinkFaults(spec faultinject.Spec) {
	for _, l := range s.Net.Links() {
		if f := spec.LinkFault(l.Name()); f != nil {
			l.SetFault(f)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(s.fabrics)) {
		for _, pt := range s.fabrics[name].Ports() {
			if f := spec.LinkFault(pt.Name()); f != nil {
				pt.SetFault(f)
			}
		}
	}
}

// EnableDegradation starts one overload controller per box (principle
// 8: each box adapts to its own conditions; there is no global
// coordinator), and on a fabric one per port, shedding only streams
// routed to it (principle 5 across the fabric). Every controller
// samples its node's Pressure and shares cfg. The controllers start in
// a fixed order — boxes by name, then fabrics by name, each fabric's
// ports in attach order — because process start order is part of the
// schedule. Returns the controllers by box or port name.
func (s *System) EnableDegradation(cfg degrade.Config) map[string]*degrade.Controller {
	ctrls := make(map[string]*degrade.Controller)
	owner := make(map[*fabric.Port]*node) // a box or a repository, by its port
	for _, n := range s.nodes {
		owner[n.port] = n
	}
	for _, name := range s.BoxNames() {
		n := s.nodes[name]
		n.ctrl = degrade.New(s.RT, n.box, (*boxGauge)(n), &cfg, s.Obs)
		ctrls[name] = n.ctrl
	}
	for _, name := range slices.Sorted(maps.Keys(s.fabrics)) {
		for _, pt := range s.fabrics[name].Ports() {
			n := owner[pt]
			n.portCtrl = degrade.New(s.RT, pt, (*portGauge)(n), &cfg, s.Obs)
			ctrls[pt.Name()] = n.portCtrl
		}
	}
	return ctrls
}

// Pressure is one node's load picture at one instant, read from the
// counters its components keep. System.Pressure fills it, and nothing
// else reads those counters for control: the box's overload controller
// acts on Video and Audio, its port's on Egress, the balancer on the
// rest. Each ratio is a queue's occupancy, 0 where the node has none.
type Pressure struct {
	// Video is the fullest of the box's video decoupling buffers
	// (Box.BufferPressure) and the link queues on its declared link
	// paths (atm.Link.Occupancy): shedding video at the source relieves
	// a path.
	Video float64
	Audio float64 // the box's fuller audio decoupling buffer

	Egress, Ingress       float64 // its fabric port's queues (Port.Occupancy)
	Sheds                 int     // streams shed now at the box and its port (Controller.NumShed)
	ShedDrops, FaultDrops uint64  // the port's cumulative drops to sheds and faults (Port.Stats)
	Copies                int     // the larger of Box.MaxNetCopies and Port.MaxIngressCopies
}

// Pressure fills the named node's record. A name that is no node reads
// as idle.
func (s *System) Pressure(name string) Pressure { return s.lookup(name).pressure() }

func (n *node) pressure() (p Pressure) {
	p.Video, p.Audio = (*boxGauge)(n).Pressure()
	if n.box != nil {
		p.Copies = n.box.MaxNetCopies()
	}
	if pt := n.port; pt != nil {
		p.Egress, p.Ingress = pt.Occupancy()
		st := pt.Stats()
		p.ShedDrops, p.FaultDrops = st.ShedDrops, st.Fault.Drops
		p.Copies = max(p.Copies, int(pt.MaxIngressCopies()))
	}
	for _, c := range [2]*degrade.Controller{n.ctrl, n.portCtrl} {
		if c != nil {
			p.Sheds += c.NumShed()
		}
	}
	return p
}

// boxGauge and portGauge are a node as its box's and its port's
// controller sample it (degrade.Sampler), each reading only what its
// controller acts on: the box's half of the record, Video and Audio, and
// the port's egress queue. A port's controller never sheds audio: port
// congestion is relieved by shedding video (principle 2).
type boxGauge node
type portGauge node

func (g *boxGauge) Pressure() (video, audio float64) {
	if g.box != nil {
		video, audio = g.box.BufferPressure()
	}
	for _, path := range g.links {
		for _, l := range path {
			video = max(video, l.Occupancy())
		}
	}
	return video, audio
}

func (g *portGauge) Pressure() (video, audio float64) {
	egress, _ := g.port.Occupancy()
	return egress, 0
}

// edge is how one node reaches another: through the fabric both hang
// off (a route toward the far port), or over a declared link path. The
// zero edge means it cannot.
type edge struct {
	fab   *fabric.Fabric
	links []*atm.Link
}

// edge resolves from→to — the one place that decides between fabric
// route, link path and unreachable. A shared fabric wins over a link;
// bridge links between fabrics are ordinary link paths.
func (s *System) edge(from, to *node) (e edge, ok bool) {
	if from.fab != nil && from.fab == to.fab {
		return edge{fab: from.fab}, true
	}
	links, ok := from.links[to.name]
	return edge{links: links}, ok
}

// mustEdge is edge for the verbs that are about to use it: asking for
// a circuit between nodes nothing joins is the caller's bug. A tree
// verb's plan checks Connectable before it decides, so only a raw
// OpenCircuit or PlayTo can panic here.
func (s *System) mustEdge(from, to *node) edge {
	e, ok := s.edge(from, to)
	if !ok {
		panic(fmt.Sprintf("core: no path %s -> %s (they share no fabric, and no link is declared)", from.name, to.name))
	}
	return e
}

// Connectable reports whether a circuit a→b can be opened: the two
// share a fabric, or a directional link path is declared. It answers
// the System's plans (Topology).
func (s *System) Connectable(a, b string) bool {
	_, ok := s.edge(s.lookup(a), s.lookup(b))
	return ok
}

// Path returns the links a circuit from a to b crosses (nil when the
// two share a fabric or nothing joins them).
func (s *System) Path(a, b string) []*atm.Link {
	e, _ := s.edge(s.lookup(a), s.lookup(b))
	return e.links
}

// sameRoute reports whether a VCI routed a→to already serves b→to: the
// fabric routes a VCI by value toward to's port, not by sender, so when
// both senders reach to across its fabric the installed route is right
// as it stands. Any other change of sender is a different circuit.
func (s *System) sameRoute(a, b, to *node) bool {
	return s.mustEdge(a, to).fab != nil && s.mustEdge(b, to).fab != nil
}

// openCircuit installs the data path for one VCI along the from→to
// edge: into the fabric routing table (toward the destination's port),
// or as a classic point-to-point circuit over the link path — bridge
// links between fabric-attached nodes included, which register the VCI
// in the sender's bridge mux.
func (s *System) openCircuit(p *occam.Proc, vci uint32, from, to *node, video bool) {
	e := s.mustEdge(from, to)
	if e.fab != nil {
		e.fab.Route(p.Now(), vci, to.port, video)
		return
	}
	if from.mux != nil {
		from.mux.bridge[vci] = true
	}
	s.Net.OpenCircuit(vci, from.host, to.host, e.links...)
}

// OpenCircuit installs a raw circuit for vci from box from toward box
// to, as openCircuit installs a stream's: a fabric route or a circuit
// over their link path. Core never allocates vci to a stream after.
func (s *System) OpenCircuit(p *occam.Proc, vci uint32, from, to string) {
	s.rawVCIs[vci] = true
	s.openCircuit(p, vci, s.lookup(from), s.lookup(to), false)
}

// ReserveVCI keeps vci out of the allocator from now on: a raw circuit
// the caller opens on it later, with OpenCircuit, meets no stream's.
func (s *System) ReserveVCI(vci uint32) { s.rawVCIs[vci] = true }

// OpenHostCircuit opens a raw circuit for vci from host from to host to
// over links — a traffic generator's, outside any node's paths. Core
// never allocates vci to a stream after.
func (s *System) OpenHostCircuit(vci uint32, from, to *atm.Host, links ...*atm.Link) {
	s.rawVCIs[vci] = true
	s.Net.OpenCircuit(vci, from, to, links...)
}

// closeCircuit tears down what openCircuit installed.
func (s *System) closeCircuit(vci uint32, from, to *node) {
	e := s.mustEdge(from, to)
	if e.fab != nil {
		e.fab.Unroute(vci)
		return
	}
	if from.mux != nil {
		delete(from.mux.bridge, vci)
	}
	s.Net.CloseCircuit(vci, from.host, e.links...)
}

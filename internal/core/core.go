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
//	sys.Control(func(p *occam.Proc) { sys.AudioCall(p, "a", "b") })
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
	"sort"
	"strings"
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

// Stream identifies one open stream: the source-local stream number
// and the VCI used at each destination.
type Stream struct {
	From  string
	Local uint32            // stream number at the source box
	VCIs  map[string]uint32 // destination name → VCI (= stream number there)
	Video bool
	// Tree is the stream's distribution plan: who feeds whom. Streams
	// opened by SendAudio/SendVideo carry the flat plan (every
	// destination fed by the source), a RecordAudio stream the flat plan
	// whose one member is the repository; SendAudioTree carries real
	// replication trees. Never nil.
	Tree *TreePlan
}

// System is a collection of boxes and repositories on one network.
type System struct {
	RT  *occam.Runtime
	Net *atm.Network
	// Obs is the system-wide observability registry: every box, link
	// and buffer registers its counters here, stamped with the
	// runtime's virtual clock.
	Obs *obs.Registry

	boxes map[string]*box.Box
	repos map[string]*repository.Repository
	paths map[string][]*atm.Link // directional: "a->b"

	fabrics  map[string]*fabric.Fabric
	fabPorts map[string]*fabric.Port   // node name → its fabric port
	fabOf    map[string]*fabric.Fabric // node name → its fabric
	fabMux   map[string]*bridgeMux     // node name → bridge transport mux

	nextVCI    uint32
	nextStream map[string]uint32

	placer Placer
}

// Placer is the placement seam the balancer control plane installs
// (internal/balancer implements it; core never imports the balancer).
// When a placer is set, the tree planner and RepairTree pick the
// best-ranked eligible candidate instead of the first in placement
// order. A placer must be deterministic: given the same candidate
// slice at the same virtual time it must return the same ranking, or
// replays stop being byte-identical.
type Placer interface {
	// RankBoxes orders cands best-first (least loaded first). The
	// result must be a permutation of cands; the caller adopts
	// element 0. Candidates arrive in placement order, so a placer
	// that ranks stably degenerates to first-fit on score ties.
	RankBoxes(cands []string) []string
}

// SetPlacer installs (or, with nil, removes) the placement policy.
func (s *System) SetPlacer(pl Placer) { s.placer = pl }

// Connectable reports whether openCircuit(a→b) would succeed — the
// balancer uses it to restrict call placement to reachable boxes.
func (s *System) Connectable(a, b string) bool { return s.connectable(a, b) }

// BoxNames returns every box name (repositories excluded), sorted.
func (s *System) BoxNames() []string {
	out := make([]string, 0, len(s.boxes))
	for n := range s.boxes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NewSystem returns an empty system.
func NewSystem() *System {
	rt := occam.NewRuntime()
	s := &System{
		RT:         rt,
		Net:        atm.New(rt),
		Obs:        obs.New(rt),
		boxes:      make(map[string]*box.Box),
		repos:      make(map[string]*repository.Repository),
		paths:      make(map[string][]*atm.Link),
		fabrics:    make(map[string]*fabric.Fabric),
		fabPorts:   make(map[string]*fabric.Port),
		fabOf:      make(map[string]*fabric.Fabric),
		fabMux:     make(map[string]*bridgeMux),
		nextVCI:    1000,
		nextStream: make(map[string]uint32),
	}
	s.Net.Observe(s.Obs)
	return s
}

// AddBox creates a Pandora box. cfg.Name must be unique and non-empty.
func (s *System) AddBox(cfg box.Config) *box.Box {
	if cfg.Name == "" {
		panic("core: box needs a name")
	}
	if _, dup := s.boxes[cfg.Name]; dup {
		panic("core: duplicate box " + cfg.Name)
	}
	if cfg.Obs == nil {
		cfg.Obs = s.Obs
	}
	b := box.New(s.RT, s.Net, cfg)
	s.boxes[cfg.Name] = b
	return b
}

// AddRepository creates a repository node.
func (s *System) AddRepository(name string) *repository.Repository {
	r := repository.New(s.RT, s.Net, name)
	s.repos[name] = r
	return r
}

// Box returns a box by name.
func (s *System) Box(name string) *box.Box { return s.boxes[name] }

// Repository returns a repository by name.
func (s *System) Repository(name string) *repository.Repository { return s.repos[name] }

func (s *System) hostOf(name string) *atm.Host {
	if b, ok := s.boxes[name]; ok {
		return b.Host()
	}
	if r, ok := s.repos[name]; ok {
		return r.Host()
	}
	panic("core: unknown node " + name)
}

// Connect joins two nodes with a symmetric pair of links.
func (s *System) Connect(a, b string, cfg atm.LinkConfig) {
	s.ConnectPath(a, b, []atm.LinkConfig{cfg})
}

// ConnectPath joins two nodes through a chain of links in each
// direction — the bridged multi-network paths of the SuperJanet
// trials (§3.7.2). Each config becomes one hop.
func (s *System) ConnectPath(a, b string, cfgs []atm.LinkConfig) {
	var fwd, rev []*atm.Link
	for i, cfg := range cfgs {
		fwd = append(fwd, s.Net.AddLink(fmt.Sprintf("%s-%s.%d", a, b, i), cfg))
		rev = append(rev, s.Net.AddLink(fmt.Sprintf("%s-%s.%d", b, a, i), cfg))
	}
	s.paths[a+"->"+b] = fwd
	s.paths[b+"->"+a] = rev
}

// Path returns the links from a to b (nil if not connected).
func (s *System) Path(a, b string) []*atm.Link { return s.paths[a+"->"+b] }

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
func (s *System) AttachFabric(fabricName, node string) *fabric.Port {
	f, ok := s.fabrics[fabricName]
	if !ok {
		panic("core: unknown fabric " + fabricName)
	}
	if _, dup := s.fabOf[node]; dup {
		panic("core: node " + node + " already fabric-attached")
	}
	h := s.hostOf(node)
	prev := h.Transport()
	pt := f.Attach(h)
	mux := &bridgeMux{port: pt, links: prev, bridge: make(map[uint32]bool)}
	h.SetTransport(mux)
	s.fabMux[node] = mux
	s.fabPorts[node] = pt
	s.fabOf[node] = f
	return pt
}

// bridgeMux lets a fabric-attached node also drive point-to-point
// bridge links toward other fabrics: VCIs registered as bridges go out
// over the network's circuit table, everything else through the
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

// sameFabric reports whether both nodes hang off one fabric.
func (s *System) sameFabric(a, b string) bool {
	fa, oka := s.fabOf[a]
	fb, okb := s.fabOf[b]
	return oka && okb && fa == fb
}

// FabricPort returns node's fabric port (nil if not attached).
func (s *System) FabricPort(node string) *fabric.Port { return s.fabPorts[node] }

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

func (s *System) allocVCI() uint32 {
	s.nextVCI++
	return s.nextVCI
}

func (s *System) allocStream(boxName string) uint32 {
	s.nextStream[boxName]++
	return s.nextStream[boxName]
}

// SendAudio opens a one-way audio stream (the "shout" of §4.1) from
// one box's microphone to each named destination's speaker (several
// destinations make it a "tannoy"). It routes through the tree
// planner's flat plan — every destination fed by one circuit from the
// source, the paper's original configuration. SendAudioTree replaces
// the flat plan with replication trees when the fan-out outgrows the
// source port. Returns the stream handle.
func (s *System) SendAudio(p *occam.Proc, from string, to ...string) *Stream {
	return s.sendTree(p, TreeConfig{}, from, box.CameraStream{}, false, to)
}

// SendVideo opens a one-way video stream to each destination's
// display (flat plan, as SendAudio).
func (s *System) SendVideo(p *occam.Proc, from string, cs box.CameraStream, to ...string) *Stream {
	return s.sendTree(p, TreeConfig{}, from, cs, true, to)
}

// AudioCall opens audio in both directions — the video phone's audio
// path (§4.1).
func (s *System) AudioCall(p *occam.Proc, a, b string) (ab, ba *Stream) {
	return s.SendAudio(p, a, b), s.SendAudio(p, b, a)
}

// Conference opens a full mesh of audio streams between the members;
// every box mixes the other members' streams (§2.0: "Their
// accompanying audio streams are mixed by software in real-time on
// the destination transputer").
func (s *System) Conference(p *occam.Proc, members ...string) []*Stream {
	var streams []*Stream
	for _, from := range members {
		var to []string
		for _, other := range members {
			if other != from {
				to = append(to, other)
			}
		}
		streams = append(streams, s.SendAudio(p, from, to...))
	}
	return streams
}

// AddAudioDestination splits an open stream to one more destination
// without disturbing the existing copies (principle 6): the newcomer
// is grafted onto the stream's plan via Pull.
func (s *System) AddAudioDestination(p *occam.Proc, st *Stream, dst string) {
	s.Pull(p, st, dst)
}

// RecordAudio opens a one-way audio stream from a box's microphone to
// a repository: a flat plan whose one member is the repository, which
// takes delivery straight off the circuit.
func (s *System) RecordAudio(p *occam.Proc, from, repo string) *Stream {
	return s.SendAudio(p, from, repo)
}

// PlayTo plays a repository recording to a box's speaker and returns
// the VCI used (the stream number at the destination).
func (s *System) PlayTo(p *occam.Proc, repoName string, rec *repository.Recording, to string) uint32 {
	vci := s.allocVCI()
	s.openCircuit(p, vci, repoName, to, false)
	s.boxes[to].SetRoute(p, box.Route{Stream: vci, Outputs: []box.Output{box.OutSpeaker}})
	s.repos[repoName].Playback(rec, vci)
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
	names := make([]string, 0, len(s.fabrics))
	for name := range s.fabrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, pt := range s.fabrics[name].Ports() {
			if f := spec.LinkFault(pt.Name()); f != nil {
				pt.SetFault(f)
			}
		}
	}
}

// EnableDegradation starts one overload controller per box (principle
// 8: each box adapts to its own conditions; there is no global
// coordinator). Each controller watches its box's decoupling buffers
// plus the outgoing links of every path leaving the box, and applies
// cfg with those links filled in. Fabric-attached systems additionally
// get one controller per fabric port, watching that port's egress
// queue and shedding only streams routed to it (principle 5 across the
// fabric); those appear in the result keyed by port name. Returns the
// controllers by box or port name.
func (s *System) EnableDegradation(cfg degrade.Config) map[string]*degrade.Controller {
	names := make([]string, 0, len(s.boxes))
	for name := range s.boxes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]*degrade.Controller, len(names))
	for _, name := range names {
		bcfg := cfg
		var links []string
		for key, ls := range s.paths {
			if strings.HasPrefix(key, name+"->") {
				for _, l := range ls {
					links = append(links, l.Name())
				}
			}
		}
		sort.Strings(links)
		bcfg.Links = links
		out[name] = degrade.New(s.RT, s.boxes[name], bcfg, s.Obs)
	}
	fabNames := make([]string, 0, len(s.fabrics))
	for name := range s.fabrics {
		fabNames = append(fabNames, name)
	}
	sort.Strings(fabNames)
	for _, name := range fabNames {
		for port, c := range s.fabrics[name].EnableDegradation(cfg, s.Obs) {
			out[port] = c
		}
	}
	return out
}

// openCircuit installs the data path for one VCI. If both endpoints
// hang off the same fabric the VCI goes into the fabric routing table
// (toward the destination's port); otherwise it becomes a classic
// point-to-point circuit over the configured link path — including
// bridge links between two fabric-attached nodes on different
// fabrics, which register the VCI in the sender's bridge mux.
func (s *System) openCircuit(p *occam.Proc, vci uint32, from, to string, video bool) {
	if s.sameFabric(from, to) {
		s.fabOf[from].Route(p.Now(), vci, s.fabPorts[to], video)
		return
	}
	links, ok := s.paths[from+"->"+to]
	if !ok {
		if ff, okf := s.fabOf[from]; okf {
			panic(fmt.Sprintf("core: %s is on fabric %s but %s is not (and no bridge link is declared)", from, ff.Name(), to))
		}
		if ft, okt := s.fabOf[to]; okt {
			panic(fmt.Sprintf("core: %s is on fabric %s but %s is not (and no bridge link is declared)", to, ft.Name(), from))
		}
		panic(fmt.Sprintf("core: no path %s -> %s", from, to))
	}
	if mux, ok := s.fabMux[from]; ok {
		mux.bridge[vci] = true
	}
	s.Net.OpenCircuit(vci, s.hostOf(from), s.hostOf(to), links...)
}

// closeCircuit tears down what openCircuit installed.
func (s *System) closeCircuit(vci uint32, from, to string) {
	if s.sameFabric(from, to) {
		s.fabOf[from].Unroute(vci)
		return
	}
	if mux, ok := s.fabMux[from]; ok {
		delete(mux.bridge, vci)
	}
	s.Net.CloseCircuit(vci, s.hostOf(from), s.paths[from+"->"+to]...)
}

// Package atm simulates the ATM network environment Pandora ran over
// (paper §1.1): virtual circuits identified by VCIs, carried over
// store-and-forward links with finite bandwidth, propagation delay
// and bounded queues. Jitter arises the way it did in real life —
// from queueing behind cross traffic (large video segments sharing a
// link with audio) — and loss from queue overflow or an injected loss
// process. Multi-hop circuits through several links model the bridged
// and wide-area paths of the SuperJanet trials (§3.7.2).
//
// "Incoming streams from the network carry the stream number
// allocated by the destination box in their VCIs" — a Message's VCI
// is exactly that stream number.
//
// Ownership: a Message carries one reference to its segment.Wire.
// Host.Send (and any Transport behind it) consumes that reference on
// success — delivery hands it to the destination host, and every drop
// point (queue overflow, injected loss, unrouted VCI) releases it; on
// error the reference stays with the caller. A host that receives a
// Message owns its reference and must Release after copying into its
// own pool — wire references never cross from one box's pool to
// another's; the copy at the receiver IS the paper's one copy in.
package atm

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/workload"
)

// Message is one Pandora segment in flight on the network. Every hop
// copies it by value, so its fields are ordered to fill 64 bytes
// exactly: one cache line, copied inline rather than by a block-copy
// routine.
type Message struct {
	// W is the segment's wire buffer. Hops move this descriptor by
	// value and never touch the bytes; each message carries one wire
	// reference, released by the network on any drop and transferred
	// to the receiving host on delivery.
	W segment.Wire
	// Size is the wire size in bytes, which determines transmission
	// time on each link.
	Size int
	// FaultDelay is extra per-message delay injected by a link fault
	// (jitter), added to the transmission and propagation times.
	FaultDelay time.Duration
	// VCI identifies the virtual circuit (the destination's stream
	// number).
	VCI uint32
	// ChunkIndex/ChunkTotal describe network interleaving (§3.7.1
	// A4): when ChunkTotal > 1 the message is one of ChunkTotal chunks
	// of the same segment — Size is the chunk's share of the bytes,
	// while W references the whole segment's wire. The UDP transport
	// carries each in 16 bits.
	ChunkIndex int32
	ChunkTotal int32
	// Corrupt marks an injected payload corruption (faultinject). The
	// message still consumes queue space and transmission time, but the
	// receiving host must discard the segment — the AAL checksum
	// failure of §3.8 ("the current segment is thrown away"). The wire
	// bytes themselves are never touched: the storage may be shared by
	// fan-out circuits whose copies arrived intact.
	Corrupt bool
}

// port is where a link sends a VCI's messages next: the next link on
// the path (*Link) or the destination host (*Host).
type port interface {
	name() string
}

// Transport is the pluggable backend that carries a host's outgoing
// messages toward their destinations. Host.Send hands the message to
// the host's transport; what happens next depends on the backend:
//
//   - the default in-process channel transport looks the VCI up in the
//     sending host's circuit table and walks the message down the
//     circuit's links (the single-process simulation everything else
//     uses);
//   - a fabric port (internal/fabric) routes the message through a
//     cell-switched fabric shared by many boxes;
//   - a UDP transport (internal/atm/udptrans) serialises the message
//     onto a socket so the peer box can run as a separate OS process.
//
// Ownership: Send takes the message's wire reference. On success the
// reference travels downstream (eventually to the receiving host or a
// drop point inside the network, which releases it); on error the
// reference stays with the caller, exactly as with the historical
// circuit-miss error path.
type Transport interface {
	// Send conveys m toward its destination.
	Send(p *occam.Proc, m Message) error
	// TransportName identifies the backend in diagnostics.
	TransportName() string
}

// chanTransport is the default in-process backend: the host's circuit
// table plus store-and-forward links, all on one runtime.
type chanTransport struct{ h *Host }

func (t chanTransport) TransportName() string { return "chan" }

func (t chanTransport) Send(p *occam.Proc, m Message) error {
	c, ok := t.h.circuits[m.VCI]
	if !ok {
		return fmt.Errorf("atm: no circuit for VCI %d from host %s", m.VCI, t.h.nm)
	}
	if c.first != nil {
		c.first.arrive(p.Now(), m)
	} else {
		c.to.Deliver(p, m)
	}
	return nil
}

// LinkConfig describes one link's characteristics.
type LinkConfig struct {
	// Bandwidth in bits per second (Pandora's ATM connections ran at
	// ring speed; Medusa upgraded boxes to 100 Mbit/s).
	Bandwidth int64
	// Propagation delay added to every message.
	Propagation time.Duration
	// QueueLimit bounds the output queue in messages; the default 64
	// drops tail under congestion.
	QueueLimit int
	// LossRate, if non-zero, drops messages at random (corruption or
	// cell loss on the path), deterministically seeded.
	LossRate float64
	// Seed seeds the loss process.
	Seed uint64
}

func (c LinkConfig) withDefaults() LinkConfig {
	if c.Bandwidth <= 0 {
		c.Bandwidth = 100_000_000
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// LinkStats reports a link's traffic history.
type LinkStats struct {
	Forwarded  uint64
	QueueDrops uint64
	LossDrops  uint64
	Bytes      uint64
}

// Link is a store-and-forward network link: messages queue at the
// input, transmit serially at the configured bandwidth, and are
// handed to the next port on their circuit after the propagation
// delay.
//
// The link is passive: admission (fault hook, loss process, queue
// bound) runs inline in the arriving message's process or callback
// (arrive), each transmission is one occam.Timer event, and link-to-link
// forwarding happens directly in the transmission-end callback. Only
// delivery to a host — which must be able to block on the host's Rx —
// runs in a process, one per link and stackless (occam.GoStep calling
// stepDeliver), woken by a Signal when a transmission ends at a host
// hop.
type Link struct {
	nm   string
	cfg  LinkConfig
	rng  *workload.RNG
	next map[uint32]port // route per VCI

	stats LinkStats // the traffic counters, which the link's registry row reads
	trace *obs.Tracer
	reg   *obs.Registry

	fault *FaultGate

	queue   []Message
	txm     Message // message in transmission
	txBusy  bool
	txTimer *occam.Timer

	dlvm    Message // message awaiting host delivery
	dlvHost *Host
	dlvSig  occam.Signal
	dlvAt   int // where stepDeliver resumes
}

// NewLink creates a link and starts its delivery process.
func NewLink(rt *occam.Runtime, name string, cfg LinkConfig) *Link {
	l := &Link{
		nm:    name,
		cfg:   cfg.withDefaults(),
		rng:   workload.NewRNG(cfg.Seed),
		next:  make(map[uint32]port),
		fault: NewFaultGate("atm."+name, "link-stall"),
	}
	l.txTimer = occam.NewTimer(rt, l.txDone)
	l.dlvSig.Init(l.nm, ".deliver")
	rt.GoStep(name+".tx", nil, occam.High, (*linkTx)(l))
	return l
}

// Name returns the link's name.
func (l *Link) Name() string { return l.nm }

func (l *Link) name() string { return l.nm }

// Stats returns a copy of the traffic counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Occupancy returns the output queue's length over its limit, the
// message in transmission not counted: atm_link_queue_depth over
// atm_link_queue_limit.
func (l *Link) Occupancy() float64 { return float64(len(l.queue)) / float64(l.cfg.QueueLimit) }

// observe registers the link's row on reg and attaches the tracer.
func (l *Link) observe(reg *obs.Registry) {
	linkTable.Register(reg, l, obs.L("link", l.nm))
	l.trace = reg.Tracer()
	l.fault.Trace(l.trace)
	l.reg = reg
	if l.fault.hook != nil {
		l.observeFault()
	}
}

// observeFault registers the fault counters. They appear in snapshots
// only once a hook is attached, so fault-free runs keep clean output.
func (l *Link) observeFault() {
	linkFaultTable.Register(l.reg, l, obs.L("link", l.nm))
}

// linkTable is a link's traffic counters and queue gauges.
var linkTable = obs.NewTable(
	obs.CounterOf("atm_link_forwarded_total", func(l *Link) uint64 { return l.stats.Forwarded }),
	obs.CounterOf("atm_link_queue_drops_total", func(l *Link) uint64 { return l.stats.QueueDrops }),
	obs.CounterOf("atm_link_loss_drops_total", func(l *Link) uint64 { return l.stats.LossDrops }),
	obs.CounterOf("atm_link_bytes_total", func(l *Link) uint64 { return l.stats.Bytes }),
	obs.GaugeOf("atm_link_queue_depth", func(l *Link) float64 { return float64(len(l.queue)) }),
	obs.GaugeOf("atm_link_queue_limit", func(l *Link) float64 { return float64(l.cfg.QueueLimit) }),
)

// linkFaultTable is a link's injected-fault counters.
var linkFaultTable = obs.NewTable(FaultColumns("atm_link_fault_", func(l *Link) *FaultGate { return l.fault })...)

// SetFault attaches a fault process to the link (nil detaches). Every
// subsequent message consults the hook on arrival, and the transmitter
// consults StallUntil before each send; see FaultGate for the counters
// and trace events each injected fault leaves.
func (l *Link) SetFault(h FaultHook) {
	l.fault.SetHook(h)
	if l.reg != nil && h != nil {
		l.observeFault()
	}
}

// FaultStats returns a copy of the injected-fault counters.
func (l *Link) FaultStats() FaultStats { return l.fault.Stats() }

// route sets the next hop for a VCI. Re-routing the same VCI to a
// different port would cross-wire one circuit's traffic into another's
// destination, so a conflicting route is a programming error
// (OpenCircuit documents per-(link, VCI) uniqueness); setting the same
// next hop again is an idempotent no-op.
func (l *Link) route(vci uint32, to port) {
	if old, ok := l.next[vci]; ok && old != to {
		panic(fmt.Sprintf("atm: link %s: VCI %d already routed to %s (conflicting route to %s)",
			l.nm, vci, old.name(), to.name()))
	}
	l.next[vci] = to
}

// arrive runs the link's arrival pipeline (fault hook, loss process,
// queue bound, duplicate) on m, arriving now, inline in whatever brought
// it: the sending host's process, or the upstream link's
// transmission-end callback. The queue always accepts (drop-tail on
// overflow), so upstream never blocks. If the transmitter is idle the
// message starts transmitting immediately.
func (l *Link) arrive(now occam.Time, m Message) {
	ok, dup := l.fault.Admit(now, &m)
	if !ok {
		return
	}
	if l.cfg.LossRate > 0 && l.rng.Bool(l.cfg.LossRate) {
		l.stats.LossDrops++
		l.trace.EmitAt(now, obs.EvDrop, "atm."+l.nm, m.VCI, "loss")
		m.W.Release()
		return
	}
	if len(l.queue) >= l.cfg.QueueLimit {
		l.stats.QueueDrops++
		l.trace.EmitAt(now, obs.EvDrop, "atm."+l.nm, m.VCI, "queue-overflow")
		m.W.Release()
		return
	}
	l.queue = append(l.queue, m)
	if dup && len(l.queue) < l.cfg.QueueLimit {
		// The duplicate respects the queue bound like any message.
		l.fault.Duplicated(now, &m)
		l.queue = append(l.queue, m)
	}
	if !l.txBusy {
		l.txTimer.Schedule(l.popTx(now))
	}
}

// popTx moves the queue head into transmission and returns when the
// transmission ends: the stall window, if the fault hook has the
// transmitter wedged (messages already queued wait out the outage),
// then the serialisation time at link bandwidth plus propagation and
// any injected per-message delay.
func (l *Link) popTx(now occam.Time) occam.Time {
	m := l.queue[0]
	copy(l.queue, l.queue[1:])
	l.queue[len(l.queue)-1] = Message{}
	l.queue = l.queue[:len(l.queue)-1]
	l.txm = m
	l.txBusy = true
	now = l.fault.StallUntil(now, m.VCI)
	tx := time.Duration(int64(m.Size) * 8 * int64(time.Second) / l.cfg.Bandwidth)
	return now + occam.Time(tx+l.cfg.Propagation+m.FaultDelay)
}

// txDone is the transmission-end callback (scheduler context): it
// routes the transmitted message — a link hop forwards inline, a host
// hop hands off to the delivery process, which alone may block — and
// starts the next transmission unless a host delivery is pending (the
// transmitter serialises behind its own deliveries, as a real
// interface does behind a slow receiver).
func (l *Link) txDone(s occam.Sched) {
	m := l.txm
	l.txm = Message{}
	nxt, ok := l.next[m.VCI]
	if !ok {
		// Unrouted VCI: the circuit was torn down mid-flight.
		l.stats.LossDrops++
		l.trace.EmitAt(s.Now(), obs.EvDrop, "atm."+l.nm, m.VCI, "unrouted")
		m.W.Release()
	} else {
		l.stats.Forwarded++
		l.stats.Bytes += uint64(m.Size)
		switch hop := nxt.(type) {
		case *Link:
			hop.arrive(s.Now(), m)
		case *Host:
			l.dlvm = m
			l.dlvHost = hop
			s.Raise(&l.dlvSig)
			return // runDeliver restarts the transmitter
		default:
			panic("atm: unknown port type at " + l.nm)
		}
	}
	if len(l.queue) > 0 {
		s.Schedule(l.txTimer, l.popTx(s.Now()))
	} else {
		l.txBusy = false
	}
}

// Where stepDeliver resumes.
const (
	dlvIdle  = iota // wait for txDone to leave a message in dlvm
	dlvOffer        // offer it to its host
	dlvTaken        // the host has it: restart the transmitter
)

// stepDeliver is the link's one process, a stackless one: it hands
// messages to their destination host — the only hop that may block, on
// the host's Rx — and restarts the transmitter when the delivery
// completes.
// linkTx is a link as its delivering process: its Step is stepDeliver.
type linkTx Link

func (t *linkTx) Step(p *occam.Proc) { (*Link)(t).stepDeliver(p) }

func (l *Link) stepDeliver(p *occam.Proc) {
	for {
		switch l.dlvAt {
		case dlvIdle:
			l.dlvAt = dlvOffer
			if l.dlvSig.Wait(p); p.Parked() {
				return
			}
		case dlvOffer:
			m, h := l.dlvm, l.dlvHost
			l.dlvm, l.dlvHost = Message{}, nil
			l.dlvAt = dlvTaken
			if h.Deliver(p, m); p.Parked() {
				return
			}
		case dlvTaken:
			if len(l.queue) > 0 {
				l.txTimer.Schedule(l.popTx(p.Now()))
			} else {
				l.txBusy = false
			}
			l.dlvAt = dlvIdle
		}
	}
}

// Host is a network endpoint — one Pandora box's network connection.
// The box's network input process must service Rx continuously
// ("the input processes run without data loss as far as the
// decoupling buffers").
type Host struct {
	nm string
	// Rx delivers arriving messages to the host.
	Rx    *occam.Chan[Message]
	trans Transport
	// circuits is the host's outgoing circuits by VCI (the destination's
	// stream number, unique per source host); nil until the first opens.
	circuits map[uint32]*circuit
}

// Name returns the host name.
func (h *Host) Name() string { return h.nm }

func (h *Host) name() string { return h.nm }

// Deliver hands an arriving message to the host, transferring the
// message's wire reference. Transport backends (the fabric's egress
// transmitters, the pandora-node UDP bridge) call this at the end of
// their delivery path; in-process circuits arrive the same way.
func (h *Host) Deliver(p *occam.Proc, m Message) { h.Rx.Send(p, m) }

// SetTransport replaces the host's outgoing backend (the default is
// the in-process channel transport over the host's circuits).
// Attaching a box to a fabric port or to a UDP socket goes through
// here; incoming traffic keeps arriving on Rx regardless of backend.
func (h *Host) SetTransport(t Transport) {
	if t == nil {
		t = chanTransport{h}
	}
	h.trans = t
}

// Transport returns the host's current outgoing backend.
func (h *Host) Transport() Transport { return h.trans }

// Send transmits a message from this host. It hands the message to
// the transport backend — for the default backend, the first link of
// a circuit previously opened from this host (which always accepts;
// congestion shows up as queueing or drops inside the network, never
// as upstream blocking).
func (h *Host) Send(p *occam.Proc, m Message) error {
	return h.trans.Send(p, m)
}

// Network is a collection of hosts and links; each host holds the
// circuits opened from it.
type Network struct {
	rt    *occam.Runtime
	obs   *obs.Registry
	hosts map[string]*Host
	links map[string]*Link
}

// circuit is a VCI's path from its source host: into the first link, or
// with no link at all straight into the destination host.
type circuit struct {
	first *Link
	to    *Host
}

// New returns an empty network on rt.
func New(rt *occam.Runtime) *Network {
	return &Network{
		rt:    rt,
		hosts: make(map[string]*Host),
		links: make(map[string]*Link),
	}
}

// Observe attaches an observability registry: every link (existing
// and future) registers its per-link counters and queue-depth gauge,
// and circuit changes and drops are traced.
func (n *Network) Observe(reg *obs.Registry) {
	n.obs = reg
	for _, l := range n.links {
		l.observe(reg)
	}
}

// Links returns every link sorted by name — the deterministic
// iteration order fault injection and reporting need (the internal map
// would leak Go's map ordering into fault schedules).
func (n *Network) Links() []*Link {
	names := make([]string, 0, len(n.links))
	for nm := range n.links {
		names = append(names, nm)
	}
	sort.Strings(names)
	out := make([]*Link, len(names))
	for i, nm := range names {
		out[i] = n.links[nm]
	}
	return out
}

// AddHost registers an endpoint.
func (n *Network) AddHost(name string) *Host {
	if _, dup := n.hosts[name]; dup {
		panic("atm: duplicate host " + name)
	}
	h := &Host{
		nm: name,
		Rx: occam.NewChan[Message](n.rt, name+".rx"),
	}
	h.trans = chanTransport{h}
	n.hosts[name] = h
	return h
}

// AddLink registers a link. Links are shared: circuits routed through
// the same link queue behind each other, which is where jitter comes
// from.
func (n *Network) AddLink(name string, cfg LinkConfig) *Link {
	if _, dup := n.links[name]; dup {
		panic("atm: duplicate link " + name)
	}
	l := NewLink(n.rt, name, cfg)
	if n.obs != nil {
		l.observe(n.obs)
	}
	n.links[name] = l
	return l
}

// OpenCircuit routes VCI vci from host from, through the given links
// in order, to host to. The VCI is the *destination's* stream number,
// so it must be unique per (source, VCI) pair and per (link, VCI)
// pair along the path.
func (n *Network) OpenCircuit(vci uint32, from, to *Host, links ...*Link) {
	if _, dup := from.circuits[vci]; dup {
		panic(fmt.Sprintf("atm: duplicate circuit VCI %d from %s", vci, from.nm))
	}
	c := &circuit{to: to}
	if len(links) > 0 {
		c.first = links[0]
		for i, l := range links {
			if i+1 < len(links) {
				l.route(vci, links[i+1])
			} else {
				l.route(vci, to)
			}
		}
	}
	if from.circuits == nil {
		from.circuits = make(map[uint32]*circuit)
	}
	from.circuits[vci] = c
	n.obs.Tracer().Emit(obs.EvStreamOpen, "atm."+from.nm, vci, "circuit to "+to.nm)
}

// CloseCircuit tears down a circuit (messages in flight on unrouted
// links are dropped, as on the real network).
func (n *Network) CloseCircuit(vci uint32, from *Host, links ...*Link) {
	delete(from.circuits, vci)
	for _, l := range links {
		delete(l.next, vci)
	}
	n.obs.Tracer().Emit(obs.EvStreamClose, "atm."+from.nm, vci, "circuit closed")
}

// Package fabric is the scale-out ATM switching fabric: an N-port
// cell switch connecting arbitrarily many Pandora boxes, where the
// single shared `internal/atm` link set of the small simulations
// becomes a real contended switch. The paper's boxes hung off
// 20 Mbit/s-per-link ATM switches and the whole design (principles
// 1–8) assumes many boxes contending for shared capacity; the fabric
// is where that contention lives.
//
// Topology: each attached host owns one Port. A message sent by the
// host enters its port's bounded *ingress* queue, crosses the
// crossbar (paced at a configurable speed-up of the port rate, with
// per-VCI routing looked up at crossing time), and lands in the
// destination port's bounded *egress* queue, which a batching
// transmitter drains onto the destination host at the port line rate.
// All queues are drop-tail: upstream never blocks, congestion shows
// up as queue depth and then drops — exactly the atm.Link contract,
// but per port, so a slow or faulted output degrades only its own
// port (principle 5 across the fabric).
//
// The hot path is cell-aware but not cell-granular: a message's 48-byte
// payload cells are accounted (queue bounds and transmission times are
// in cells, including the 5-byte header tax) while the unit moved is
// still one wire descriptor, and the egress transmitter drains whole
// *batches* of queued messages per timer event so a deep backlog costs
// one scheduler wake-up per cell train, not per segment.
//
// Engine: the fabric is *passive* — it owns no processes except one
// transmitter per port, and that one is stackless (occam.GoStep: the
// dispatch loop calls Port.stepTx). Each port's crossbar shard is a self-
// perpetuating occam.Timer chain: ingress admission runs inline in the
// sending host's process, the crossing-end callback routes the message
// (dense per-VCI table, no allocation) and applies the destination
// port's admission pipeline, and only delivery — which must be able to
// block on host backpressure — happens in the port's transmitter
// process, woken by an occam.Signal when an arrival starts a new cell
// train. Per message the fabric costs two timer events (one crossing,
// amortised share of one train) instead of the eight-plus park/wake
// handshakes of a process-per-stage pipeline, and the ports' shards
// are independent: port A's backlog never wakes port B's code.
//
// Ownership: a message's wire reference rides the descriptor through
// both queues; every drop point (ingress overflow, unrouted VCI, shed
// VCI, injected fault, egress overflow) releases it, and delivery
// transfers it to the receiving host, which releases after its single
// copy-in. The fabric never touches payload bytes.
//
// Per-port observability (fabric_port_* counters, queue-depth gauges)
// registers into internal/obs; each port implements degrade.Target so
// one overload controller per port sheds the port's own video streams
// oldest-first without disturbing any other port.
package fabric

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/atm"
	"repro/internal/degrade"
	"repro/internal/obs"
	"repro/internal/occam"
)

// ATM cell geometry: 48 payload bytes carried in 53 wire bytes.
const (
	cellPayload = 48
	cellWire    = 53
)

// cells returns the number of ATM cells a message of size bytes
// occupies.
func cells(size int) int {
	if size <= 0 {
		return 1
	}
	return (size + cellPayload - 1) / cellPayload
}

// Config parameterises a Fabric. Zero values select defaults.
type Config struct {
	// PortBandwidth is each port's egress line rate in bits per second
	// (default 100 Mbit/s, the Medusa-era upgrade; the paper's original
	// switches ran 20 Mbit/s per link).
	PortBandwidth int64
	// Propagation is the egress propagation delay per cell train.
	Propagation time.Duration
	// EgressCellLimit bounds a port's egress queue in cells
	// (default 8192 ≈ 384 KB of payload).
	EgressCellLimit int
}

const (
	// ingressLimit bounds a port's ingress queue in messages.
	ingressLimit = 64
	// batchCells is the egress transmitter's maximum cell train per
	// timer event (256 cells ≈ 12 KB). Larger trains cost fewer
	// scheduler wake-ups under backlog but coarsen delivery timing by
	// one train's transmission time.
	batchCells = 256
)

// xbarSpeedup is the crossbar's service rate as a multiple of
// PortBandwidth: the shared backplane is faster than any one port, so
// sustained congestion collects at egress queues, as in a real
// output-queued switch.
const xbarSpeedup = 8

func (c Config) withDefaults() Config {
	if c.PortBandwidth <= 0 {
		c.PortBandwidth = 100_000_000
	}
	if c.EgressCellLimit <= 0 {
		c.EgressCellLimit = 8192
	}
	return c
}

// route is one VCI's entry in the fabric routing table.
type route struct {
	out    *Port
	video  bool
	opened occam.Time
}

// routeTabMax bounds the dense routing table: VCIs below this live in
// a slice indexed directly by VCI (the allocation-free per-cell
// lookup); pathological VCIs above it fall back to a map.
const routeTabMax = 1 << 20

// Fabric is an N-port cell-switched ATM fabric on one runtime.
type Fabric struct {
	rt    *occam.Runtime
	nm    string
	cfg   Config
	ports []*Port
	// routeTab is the routing table, dense by VCI: the per-cell fast
	// path, and in VCI order for iteration. highRoutes holds the VCIs
	// at or above routeTabMax; nil until one is routed. A slice, unlike
	// a map that routes and unroutes, grows at the same points in every
	// run.
	routeTab   []*route
	highRoutes map[uint32]*route
	reg        *obs.Registry
	trace      *obs.Tracer
}

// New returns an empty fabric named name. Attach ports, install
// routes, then drive the runtime.
func New(rt *occam.Runtime, name string, cfg Config) *Fabric {
	return &Fabric{
		rt:  rt,
		nm:  name,
		cfg: cfg.withDefaults(),
	}
}

// Observe attaches an observability registry: every port (existing and
// future) registers its counters and queue-depth gauges, and routing
// changes and drops are traced.
func (f *Fabric) Observe(reg *obs.Registry) {
	f.reg = reg
	f.trace = reg.Tracer()
	for _, pt := range f.ports {
		pt.observe(reg)
	}
}

// Attach creates the next port, connects h to it (the port becomes the
// host's outgoing transport; deliveries arrive on the host's Rx), and
// returns it.
func (f *Fabric) Attach(h *atm.Host) *Port {
	id := len(f.ports)
	nm := fmt.Sprintf("%s.p%02d", f.nm, id)
	pt := &Port{
		fab:          f,
		nm:           nm,
		host:         h,
		routedText:   "routed to " + nm,
		unroutedText: "unrouted from " + nm,
	}
	pt.fault = atm.NewFaultGate(pt.nm, "port-stall")
	pt.crossTimer = occam.NewTimer(f.rt, pt.crossDone)
	pt.txWake = occam.NewTimer(f.rt, func(s occam.Sched) { s.Raise(&pt.txSig) })
	pt.txSig.Init(pt.nm, ".txwake")
	f.ports = append(f.ports, pt)
	if f.reg != nil {
		pt.observe(f.reg)
	}
	h.SetTransport(pt)
	f.rt.GoStep(pt.nm+".tx", nil, occam.High, (*portTx)(pt))
	return pt
}

// Port returns port i.
func (f *Fabric) Port(i int) *Port { return f.ports[i] }

// Ports returns the ports in attach order (already deterministic).
func (f *Fabric) Ports() []*Port { return append([]*Port(nil), f.ports...) }

// Route installs VCI vci toward port to. The video flag and open time
// feed the per-port overload controllers' shed ranking (video before
// audio, oldest first). Installing a VCI that is already routed to a
// *different* port is a programming error, exactly as on atm links;
// re-installing the same mapping is an idempotent no-op. The table is
// consulted per message at crossbar time, so an installation takes
// effect between segments without disturbing any other VCI
// (principle 6).
func (f *Fabric) Route(now occam.Time, vci uint32, to *Port, video bool) {
	if old := f.lookup(vci); old != nil {
		if old.out != to {
			panic(fmt.Sprintf("fabric: %s: VCI %d already routed to %s (conflicting route to %s)",
				f.nm, vci, old.out.nm, to.nm))
		}
		return
	}
	r := &route{out: to, video: video, opened: now}
	if vci < routeTabMax {
		if n := int(vci) + 1; n > cap(f.routeTab) {
			tab := make([]*route, n, 2*n)
			copy(tab, f.routeTab)
			f.routeTab = tab
		} else if n > len(f.routeTab) {
			f.routeTab = f.routeTab[:n] // never written past len: still nil
		}
		f.routeTab[vci] = r
	} else {
		if f.highRoutes == nil {
			f.highRoutes = make(map[uint32]*route)
		}
		f.highRoutes[vci] = r
	}
	f.trace.Emit(obs.EvStreamOpen, f.nm, vci, to.routedText)
}

// Unroute removes a VCI. Messages already crossing for it are dropped
// at the crossbar ("unrouted", as on a torn-down circuit); every other
// VCI is untouched (principle 6).
func (f *Fabric) Unroute(vci uint32) {
	r := f.lookup(vci)
	if r == nil {
		return
	}
	if vci < routeTabMax {
		f.routeTab[vci] = nil
	} else {
		delete(f.highRoutes, vci)
	}
	delete(r.out.shed, vci)
	f.trace.Emit(obs.EvStreamClose, f.nm, vci, r.out.unroutedText)
}

// Reroute retargets an existing VCI onto a different port — the
// mid-stream rewiring a distribution-tree repair performs when an
// orphaned subtree is re-parented. Messages already crossing resolve
// the route at crossing end, so the switch applies cleanly between
// messages (principle 6); there is no conflicting-route panic because
// replacing the target is exactly the point. A VCI not currently
// routed is simply installed.
func (f *Fabric) Reroute(now occam.Time, vci uint32, to *Port, video bool) {
	f.Unroute(vci)
	f.Route(now, vci, to, video)
}

// lookup is the per-cell route lookup: a slice index for every VCI the
// dense table covers, the map only for the pathological remainder.
func (f *Fabric) lookup(vci uint32) *route {
	if int(vci) < len(f.routeTab) {
		return f.routeTab[vci]
	}
	if vci < routeTabMax {
		return nil
	}
	return f.highRoutes[vci]
}

// PortStats is one port's traffic history.
type PortStats struct {
	Forwarded    uint64 // messages delivered to the host
	Bytes        uint64 // payload bytes delivered
	Cells        uint64 // cells transmitted
	IngressDrops uint64 // ingress queue overflow
	EgressDrops  uint64 // egress queue overflow
	Unrouted     uint64 // dropped at the crossbar: no route
	ShedDrops    uint64 // dropped by the port's overload controller
	// Fault counts what the port's fault gate injected.
	Fault atm.FaultStats
}

// Stats sums every port's counters.
func (f *Fabric) Stats() PortStats {
	var t PortStats
	for _, pt := range f.ports {
		s := pt.Stats()
		t.Forwarded += s.Forwarded
		t.Bytes += s.Bytes
		t.Cells += s.Cells
		t.IngressDrops += s.IngressDrops
		t.EgressDrops += s.EgressDrops
		t.Unrouted += s.Unrouted
		t.ShedDrops += s.ShedDrops
		t.Fault.Add(s.Fault)
	}
	return t
}

// Port is one fabric port: the attachment point of one host, with its
// own bounded ingress and egress queues, crossbar timer chain, and
// batching egress transmitter process, plus optional fault hook and
// overload controller.
//
// Queue/engine state is touched from two contexts — attached
// processes (Send, stepTx, the controllers' Occupancy reads) and
// crossing-end timer callbacks — which the occam runtime serialises;
// see the occam scheduler-context rules.
type Port struct {
	fab  *Fabric
	nm   string
	host *atm.Host
	// routedText and unroutedText are what Route and Unroute trace for
	// a VCI toward this port, built once.
	routedText, unroutedText string

	// Ingress shard: the queue of messages waiting for the crossbar,
	// plus the one message in flight across it. crossTimer fires at the
	// in-flight message's crossing end; the chain re-arms itself while
	// the queue is non-empty.
	inq        []atm.Message
	crossing   atm.Message
	crossBusy  bool
	crossTimer *occam.Timer

	// Egress shard: the bounded cell queue, the train being
	// transmitted, and the transmitter process. txBusy covers the whole
	// train lifecycle (pacing + delivery); txWake fires at train end
	// and raises txSig to hand the sliced train to stepTx for delivery.
	egq     []atm.Message
	egCells int
	batch   []atm.Message // current cell train (reused)
	txAt    int           // where stepTx resumes
	txNext  int           // next of batch to deliver
	txBusy  bool
	txWake  *occam.Timer
	txSig   occam.Signal

	shed  map[uint32]bool
	fault *atm.FaultGate

	// inByVCI counts messages the attached host offered at this port's
	// ingress, per VCI, in the order of each VCI's first offer — the
	// per-hop copy accounting: the number of distinct VCIs a box's port
	// carries inbound-to-fabric is exactly how many copies that box fans
	// out, so an interior tree box's bound (≤ K) is checkable hop by hop.
	// A box fans out to few VCIs, so a scan beats hashing each message.
	inByVCI []vciCount
	inMax   uint64 // the largest count in inByVCI, which only grows

	// Traffic and drop counters, which the port's registry row reads.
	forwarded, bytes, cellsTx, inDrops, egDrops, unrouted, shedDrops uint64
}

// vciCount is one VCI's count of messages offered at a port.
type vciCount struct {
	vci uint32
	n   uint64
}

// Name returns the port name (the obs "port" label value).
func (pt *Port) Name() string { return pt.nm }

// Stats returns a copy of the port's counters.
func (pt *Port) Stats() PortStats {
	return PortStats{
		Forwarded:    pt.forwarded,
		Bytes:        pt.bytes,
		Cells:        pt.cellsTx,
		IngressDrops: pt.inDrops,
		EgressDrops:  pt.egDrops,
		Unrouted:     pt.unrouted,
		ShedDrops:    pt.shedDrops,
		Fault:        pt.fault.Stats(),
	}
}

// IngressCopies returns how many messages the attached host offered
// at this port's ingress, per VCI — the per-hop copy evidence: one
// entry per copy the box fans out, with counts near the stream's
// segment total.
func (pt *Port) IngressCopies() map[uint32]uint64 {
	out := make(map[uint32]uint64, len(pt.inByVCI))
	for _, c := range pt.inByVCI {
		out[c.vci] = c.n
	}
	return out
}

// MaxIngressCopies returns the largest of IngressCopies' counts — the
// most messages the host has offered on any one VCI — without the copy.
func (pt *Port) MaxIngressCopies() uint64 { return pt.inMax }

// Occupancy returns the egress queue's cells over EgressCellLimit and
// the ingress queue's messages over ingressLimit, the train being
// transmitted and the message crossing not counted:
// fabric_port_queue_depth over fabric_port_queue_limit, and
// fabric_port_ingress_depth over fabric_port_ingress_limit.
func (pt *Port) Occupancy() (egress, ingress float64) {
	cfg := pt.fab.cfg
	return float64(pt.egCells) / float64(cfg.EgressCellLimit), float64(len(pt.inq)) / ingressLimit
}

// SetFault attaches a fault process to the port's egress (nil
// detaches): every message routed *to* this port consults the hook on
// egress arrival, and the transmitter consults StallUntil before each
// cell train — so an injected fault, like real port trouble, stays on
// its own port.
func (pt *Port) SetFault(h atm.FaultHook) { pt.fault.SetHook(h) }

// observe registers the port's row under the obs "port" label.
func (pt *Port) observe(reg *obs.Registry) {
	portTable.Register(reg, pt, obs.L("port", pt.nm))
	pt.fault.Trace(reg.Tracer())
}

// portTable is a port's traffic, drop and injected-fault counters and
// its queue gauges.
var portTable = obs.NewTable(append([]obs.Column[*Port]{
	obs.CounterOf("fabric_port_forwarded_total", func(pt *Port) uint64 { return pt.forwarded }),
	obs.CounterOf("fabric_port_bytes_total", func(pt *Port) uint64 { return pt.bytes }),
	obs.CounterOf("fabric_port_cells_total", func(pt *Port) uint64 { return pt.cellsTx }),
	obs.CounterOf("fabric_port_ingress_drops_total", func(pt *Port) uint64 { return pt.inDrops }),
	obs.CounterOf("fabric_port_egress_drops_total", func(pt *Port) uint64 { return pt.egDrops }),
	obs.CounterOf("fabric_port_unrouted_total", func(pt *Port) uint64 { return pt.unrouted }),
	obs.CounterOf("fabric_port_shed_drops_total", func(pt *Port) uint64 { return pt.shedDrops }),
	obs.GaugeOf("fabric_port_ingress_depth", func(pt *Port) float64 { return float64(len(pt.inq)) }),
	obs.GaugeOf("fabric_port_ingress_limit", func(*Port) float64 { return ingressLimit }),
	obs.GaugeOf("fabric_port_queue_depth", func(pt *Port) float64 { return float64(pt.egCells) }),
	obs.GaugeOf("fabric_port_queue_limit", func(pt *Port) float64 { return float64(pt.fab.cfg.EgressCellLimit) }),
}, atm.FaultColumns("fabric_port_fault_", func(pt *Port) *atm.FaultGate { return pt.fault })...)...)

// TransportName implements atm.Transport.
func (pt *Port) TransportName() string { return "fabric:" + pt.nm }

// crossDur returns how long m occupies this port's crossbar shard.
func (pt *Port) crossDur(m atm.Message) time.Duration {
	bw := pt.fab.cfg.PortBandwidth * xbarSpeedup
	return time.Duration(int64(cells(m.Size)) * cellWire * 8 * int64(time.Second) / bw)
}

// Send implements atm.Transport: ingress admission, run inline in the
// sending host's process. If the crossbar shard is idle (which implies
// the ingress queue is empty) the message starts crossing immediately;
// otherwise it waits in the bounded queue, drop-tail on overflow. The
// sender never blocks on fabric congestion.
func (pt *Port) Send(p *occam.Proc, m atm.Message) error {
	pt.inMax = max(pt.inMax, pt.countIn(m.VCI))
	if pt.crossBusy {
		if len(pt.inq) >= ingressLimit {
			pt.inDrops++
			pt.fab.trace.EmitAt(p.Now(), obs.EvDrop, pt.nm, m.VCI, "ingress-overflow")
			m.W.Release()
			return nil
		}
		pt.inq = append(pt.inq, m)
		return nil
	}
	pt.crossBusy = true
	pt.crossing = m
	pt.crossTimer.Schedule(p.Now() + occam.Time(pt.crossDur(m)))
	return nil
}

// countIn counts one more message offered on vci and returns its count.
func (pt *Port) countIn(vci uint32) uint64 {
	for i := range pt.inByVCI {
		if c := &pt.inByVCI[i]; c.vci == vci {
			c.n++
			return c.n
		}
	}
	pt.inByVCI = append(pt.inByVCI, vciCount{vci: vci, n: 1})
	return 1
}

// crossDone is the crossing-end timer callback (scheduler context): it
// routes the message that just finished crossing — the VCI is looked
// up at crossing *end*, so a mid-stream reroute or teardown applies
// per message — hands it to the destination port's egress, and starts
// the next crossing if the ingress queue is non-empty.
func (pt *Port) crossDone(s occam.Sched) {
	m := pt.crossing
	pt.crossing = atm.Message{}
	if r := pt.fab.lookup(m.VCI); r == nil {
		pt.unrouted++
		pt.fab.trace.EmitAt(s.Now(), obs.EvDrop, pt.nm, m.VCI, "unrouted")
		m.W.Release()
	} else {
		r.out.egArrive(s, m)
	}
	if len(pt.inq) > 0 {
		next := pt.inq[0]
		copy(pt.inq, pt.inq[1:])
		pt.inq[len(pt.inq)-1] = atm.Message{}
		pt.inq = pt.inq[:len(pt.inq)-1]
		pt.crossing = next
		s.Schedule(pt.crossTimer, s.Now()+occam.Time(pt.crossDur(next)))
	} else {
		pt.crossBusy = false
	}
}

// egArrive applies the egress-side admission pipeline to one message
// arriving off the crossbar (scheduler context): the port's shed bar
// first (the overload controller stops a stream before it consumes
// fault RNG or queue space), then the fault hook, then the cell bound.
// The message ends up either queued (possibly twice, for an injected
// duplicate) or released. If the transmitter is idle, the arrival
// starts a new cell train immediately.
func (pt *Port) egArrive(s occam.Sched, m atm.Message) {
	now := s.Now()
	if pt.shed[m.VCI] {
		pt.shedDrops++
		pt.fab.trace.EmitAt(now, obs.EvDrop, pt.nm, m.VCI, "degrade-shed")
		m.W.Release()
		return
	}
	ok, dup := pt.fault.Admit(now, &m)
	if !ok {
		return
	}
	n := cells(m.Size)
	if pt.egCells+n > pt.fab.cfg.EgressCellLimit {
		pt.egDrops++
		pt.fab.trace.EmitAt(now, obs.EvDrop, pt.nm, m.VCI, "egress-overflow")
		m.W.Release()
		return
	}
	pt.egq = append(pt.egq, m)
	pt.egCells += n
	if dup && pt.egCells+n <= pt.fab.cfg.EgressCellLimit {
		// The duplicate comes under the same cell bound.
		pt.fault.Duplicated(now, &m)
		pt.egq = append(pt.egq, m)
		pt.egCells += n
	}
	if !pt.txBusy && len(pt.egq) > 0 {
		// Idle transmitter: this arrival starts a cell train now. Slice
		// it, pace it, and wake stepTx at train end to deliver.
		pt.txBusy = true
		pt.slice()
		s.Schedule(pt.txWake, pt.trainEnd(now))
	}
}

// slice cuts the next cell train off the head of the egress queue into
// pt.batch: at least one message, then as many more as fit in
// batchCells. The batch buffer is reused train to train.
func (pt *Port) slice() {
	pt.batch = pt.batch[:0]
	got := 0
	for len(pt.egq) > 0 {
		n := cells(pt.egq[0].Size)
		if got > 0 && got+n > batchCells {
			break
		}
		got += n
		pt.batch = append(pt.batch, pt.egq[0])
		copy(pt.egq, pt.egq[1:])
		pt.egq[len(pt.egq)-1] = atm.Message{}
		pt.egq = pt.egq[:len(pt.egq)-1]
	}
	pt.egCells -= got
}

// trainEnd returns when the train in pt.batch, started at now,
// finishes transmitting: the port stall window (if the fault hook has
// the transmitter wedged, queued cells wait out the outage on this
// port alone), then one line-rate transmission covering the whole
// train, plus propagation and the largest injected per-message delay.
func (pt *Port) trainEnd(now occam.Time) occam.Time {
	cfg := pt.fab.cfg
	now = pt.fault.StallUntil(now, 0)
	var (
		totalCells int
		maxDelay   time.Duration
	)
	for i := range pt.batch {
		totalCells += cells(pt.batch[i].Size)
		if pt.batch[i].FaultDelay > maxDelay {
			maxDelay = pt.batch[i].FaultDelay
		}
	}
	tx := time.Duration(int64(totalCells) * cellWire * 8 * int64(time.Second) / cfg.PortBandwidth)
	return now + occam.Time(tx+cfg.Propagation+maxDelay)
}

// Where stepTx resumes.
const (
	txIdle  = iota // wait for egArrive to start a train
	txTrain        // deliver the rest of the train in pt.batch, from txNext on
)

// stepTx is the port's one process, a stackless one: it delivers
// finished cell trains to the attached host — the only fabric step that
// may block (host backpressure) — and paces follow-on trains while
// backlog remains. It sleeps on txSig whenever the port goes idle;
// egArrive slices the train that wakes it.
// portTx is a port as its transmitter process: its Step is stepTx.
type portTx Port

func (t *portTx) Step(p *occam.Proc) { (*Port)(t).stepTx(p) }

func (pt *Port) stepTx(p *occam.Proc) {
	for {
		if pt.txAt == txIdle {
			pt.txAt, pt.txNext = txTrain, 0
			if pt.txSig.Wait(p); p.Parked() {
				return
			}
		}
		for pt.txNext < len(pt.batch) {
			m := pt.batch[pt.txNext]
			pt.batch[pt.txNext] = atm.Message{}
			pt.txNext++
			pt.forwarded++
			pt.bytes += uint64(m.Size)
			pt.cellsTx += uint64(cells(m.Size))
			if pt.host.Deliver(p, m); p.Parked() {
				return
			}
		}
		if len(pt.egq) == 0 {
			pt.txBusy = false
			pt.txAt = txIdle
			continue
		}
		// Backlog: slice the next train at delivery-complete time
		// and sleep out its transmission.
		now := p.Now()
		pt.slice()
		pt.txNext = 0
		if p.SleepUntil(pt.trainEnd(now)); p.Parked() {
			return
		}
	}
}

// --- degrade.Target: per-port overload levers ---

// DegradeName implements degrade.Target.
func (pt *Port) DegradeName() string { return pt.nm }

// DegradeStreams implements degrade.Target: the VCIs currently routed
// to this port, in VCI order for deterministic controller decisions.
// Every fabric stream is incoming from the port's point of view — it
// is traffic about to be delivered to the attached box.
func (pt *Port) DegradeStreams() []degrade.StreamInfo {
	var out []degrade.StreamInfo
	add := func(vci uint32, r *route) {
		if r != nil && r.out == pt {
			out = append(out, degrade.StreamInfo{ID: vci, Video: r.video, Incoming: true, Opened: r.opened})
		}
	}
	for vci, r := range pt.fab.routeTab {
		add(uint32(vci), r)
	}
	for _, vci := range slices.Sorted(maps.Keys(pt.fab.highRoutes)) {
		add(vci, pt.fab.highRoutes[vci])
	}
	return out
}

// DegradeShed implements degrade.Target: bar the VCI at this port's
// egress. The source box keeps transmitting (it is not this port's to
// command — principle 8 is local adaptation), the crossbar keeps
// switching, and the cells die here, on the congested port alone.
func (pt *Port) DegradeShed(p *occam.Proc, id uint32) {
	if pt.shed == nil {
		pt.shed = make(map[uint32]bool)
	}
	pt.shed[id] = true
}

// DegradeRestore implements degrade.Target.
func (pt *Port) DegradeRestore(p *occam.Proc, id uint32) { delete(pt.shed, id) }

// DegradeSettle implements degrade.Target: a port's shed and restore
// are done when they return.
func (pt *Port) DegradeSettle(id uint32, shed bool) {}

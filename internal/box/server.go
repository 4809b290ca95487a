package box

import (
	"fmt"
	"time"

	"repro/internal/allocator"
	"repro/internal/atm"
	"repro/internal/decouple"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
)

// The server board (§3.4/§3.5, figure 3.3): input device handlers
// fill shared buffers and send their indices to the switch, which
// consults per-stream tables and forwards descriptors into the
// decoupling buffers of each requested output device. The buffers sit
// *downstream* of the switch "so that the poor performance of one
// output device does not affect streams to other output devices"
// (principle 5), and the switch "simply omits to send ... any more
// segments" to a full one, counting and reporting the drops.

// outIndex maps Output → decoupling buffer slot; OutNetwork expands
// to two buffers (figure 3.7: audio split from video "so that it can
// be given priority", principle 2).
const (
	bufSpeaker = iota
	bufNetAudio
	bufNetVideo
	bufDisplay
	numOutBufs
)

// slotName names a decoupling buffer slot for metrics and traces.
func slotName(slot int) string {
	switch slot {
	case bufSpeaker:
		return "speaker"
	case bufNetAudio:
		return "net-audio"
	case bufNetVideo:
		return "net-video"
	case bufDisplay:
		return "display"
	}
	return "?"
}

func (b *Box) startServer() {
	rt, name := b.rt, b.cfg.Name
	mk := func(slot int, nm string, capacity int) {
		buf := decouple.New[*allocator.Buffer](rt, name+"."+nm, capacity, b.cfg.Obs)
		if ws := b.cfg.SinkStalls[slotName(slot)]; len(ws) > 0 {
			buf.SetStall(faultinject.Stalls(ws))
		}
		b.outBufs[slot] = buf
	}
	mk(bufSpeaker, "spkbuf", switchBufferSegments)
	mk(bufNetAudio, "netAbuf", netAudioBufferSegments)
	mk(bufNetVideo, "netVbuf", netVideoBufferSegments)
	mk(bufDisplay, "dispbuf", switchBufferSegments)
	// One process drains both network buffers (netOut).
	b.outBufs[bufNetVideo].ShareWake(b.outBufs[bufNetAudio])

	// Every process of the server board is stackless, written like the
	// audio board's (audio.go): the switch, one input handler per input
	// device, one output handler per output device on another board, and
	// netOut.
	goStep := func(nm string, step occam.Stepper) {
		rt.GoStep(name+"."+nm, b.serverNode, occam.High, step)
	}
	input := func(from arrivals) occam.Stepper { return &inputHandler{b: b, from: from} }
	goStep("switch", newDataSwitch(b))
	goStep("audioIn", input(&boardLink{link: b.audioToServer}))
	goStep("netIn", input(&netInterface{b: b}))
	goStep("captureIn", input(&boardLink{link: b.captureToServer}))
	// The audio board's end of its link is passive; the display process
	// takes each segment by rendezvous, and nothing precedes it on the fifo.
	goStep("audioOut", &outputHandler{b: b, dev: &outputDevice{from: b.outBufs[bufSpeaker], link: b.serverToAudio,
		header: segment.StreamNumberSize, handOver: b.audioDeliver}})
	goStep("netOut", &netOut{b: b})
	goStep("displayOut", &outputHandler{b: b, dev: &outputDevice{from: b.outBufs[bufDisplay], link: b.serverToMixer,
		handOver: b.serverToMixer.Rendezvous}})
}

// appendBufSlots appends the decoupling buffer slots serving a route
// output, picked by the wire's in-place type field. With the A2
// ablation everything network-bound shares the video buffer, losing
// audio its separate queue.
func (b *Box) appendBufSlots(slots []int, o Output, w segment.Wire) []int {
	switch o {
	case OutSpeaker:
		return append(slots, bufSpeaker)
	case OutDisplay:
		return append(slots, bufDisplay)
	case OutNetwork:
		if b.cfg.SharedNetBuffer || w.Type() == segment.TypeVideo {
			return append(slots, bufNetVideo)
		}
		return append(slots, bufNetAudio)
	}
	return slots
}

// dataSwitch is the server data switch: PRI ALT with commands first
// (principle 4), then data.
type dataSwitch struct {
	b      *Box
	at     int // swAlt or swCharged
	routes byStream[*Route]
	shed   byStream[struct{}] // overload-controller suspensions
	// Principle-3 state per output buffer: how many of the oldest
	// streams are currently being degraded, and when the last forced
	// (buffer-full) drop happened.
	degrade    [numOutBufs]int
	lastForced [numOutBufs]occam.Time
	full       [numOutBufs]reportGate
	status     reportGate

	// The guard slice is built once and reused at every alternation.
	cmd    switchCommand
	buf    *allocator.Buffer
	guards [2]occam.Guard
	slots  []int
	r      *Route // buf's route, while its switching is charged
}

const (
	swAlt     = iota // at the alternation: about to wait, or woken by a guard
	swCharged        // the switching CPU for buf is spent: fan it out
)

func newDataSwitch(b *Box) *dataSwitch {
	sw := &dataSwitch{
		b:     b,
		slots: make([]int, 0, numOutBufs),
	}
	sw.guards = [2]occam.Guard{occam.Recv(b.switchCmd, &sw.cmd), occam.Recv(b.toSwitch, &sw.buf)}
	return sw
}

func (sw *dataSwitch) Step(p *occam.Proc) {
	b := sw.b
	for {
		if sw.at == swCharged {
			sw.fanOut(p)
			sw.at = swAlt
		}
		// Parked here, the switch is given -1 and comes back to this
		// call, which then names the guard that fired.
		switch p.Alt(sw.guards[:]...) {
		case -1:
			return
		case 0:
			sw.command(p)
		case 1:
			buf := sw.buf
			if sw.r, _ = sw.routes.get(buf.Stream); sw.r == nil {
				b.swStats.NoRoute++
				b.pool.Release(p, buf)
				continue
			}
			if _, shed := sw.shed.get(buf.Stream); shed {
				// The overload controller suspended this stream: stop
				// its data at the earliest shared point, before any
				// copying or buffering.
				b.swStats.ShedDrops++
				b.streamDrop(buf.Stream)
				b.pool.Release(p, buf)
				b.trace.Emit(obs.EvDrop, b.switchSrc, buf.Stream, "degrade-shed")
				continue
			}
			sw.at = swCharged
			size := buf.Payload.Len()
			if p.Consume(serverSwitchCost + time.Duration(size)*serverCopyPerKB/1024); p.Parked() {
				return
			}
		}
	}
}

// fanOut forwards buf, its switching charged, to the decoupling buffer
// of every output its stream is routed to.
func (sw *dataSwitch) fanOut(p *occam.Proc) {
	b, buf, r, degrade, lastForced := sw.b, sw.buf, sw.r, &sw.degrade, &sw.lastForced

	// Expand outputs to buffer slots.
	slots := sw.slots[:0]
	for _, o := range r.Outputs {
		slots = b.appendBufSlots(slots, o, buf.Payload)
	}
	sw.slots = slots
	if len(slots) == 0 {
		b.pool.Release(p, buf)
		return
	}
	b.swStats.Switched++
	// One reference per destination (§3.4).
	b.pool.Retain(p, buf, len(slots)-1)
	for _, slot := range slots {
		// Principle 3: under pressure, the oldest streams
		// degrade first.
		if degrade[slot] > 0 && b.isAmongOldest(sw.routes, r, slot, degrade[slot]) {
			// Principle 3 in action: the oldest stream degrades
			// to protect the younger ones.
			b.swStats.AgeDrops[slot]++
			b.streamDrop(buf.Stream)
			b.pool.Release(p, buf)
			b.trace.Emit(obs.EvDrop, b.switchSrc, buf.Stream,
				"age-degrade "+slotName(slot))
			continue
		}
		if !b.outBufs[slot].Deliver(p, buf) {
			// Buffer full: "the switch simply omits to send it
			// any more segments... records how many segments
			// have been dropped in this way, and periodically
			// sends reports while the condition persists."
			b.swStats.FullDrops[slot]++
			b.streamDrop(buf.Stream)
			b.pool.Release(p, buf)
			b.report(p, &sw.full[slot], obs.EvDrop, "switch", buf.Stream,
				"output %d full: dropping (total %d)", slot, b.swStats.FullDrops[slot])
			if degrade[slot] < b.streamsFor(sw.routes, slot)-1 {
				degrade[slot]++
				b.trace.Emit(obs.EvOverload, b.switchSrc, buf.Stream,
					fmt.Sprintf("output %s full, degrading %d oldest", slotName(slot), degrade[slot]))
			}
			lastForced[slot] = p.Now()
		}
	}
	// Relax degradation when no forced drop for a while
	// (principle 8: adapt to local conditions).
	for slot := range degrade {
		if degrade[slot] > 0 && p.Now().Sub(lastForced[slot]) > 500*time.Millisecond {
			degrade[slot]--
			lastForced[slot] = p.Now()
			if degrade[slot] == 0 {
				b.trace.Emit(obs.EvRecover, b.switchSrc, 0,
					"output "+slotName(slot)+" recovered")
			}
		}
	}
}

// command applies the switch command just received.
func (sw *dataSwitch) command(p *occam.Proc) {
	b, cmd := sw.b, sw.cmd
	var what string
	switch cmd.op {
	case cmdSet:
		// The route is the switch's from here: SetRoute made it for
		// this command, and the box's mirror only reads it.
		sw.routes.set(cmd.stream, cmd.route)
		what = routeSetText(cmd.route.Outputs)
	case cmdClose:
		sw.routes.del(cmd.stream)
		sw.shed.del(cmd.stream)
		what = "route closed"
	case cmdShed:
		sw.shed.set(cmd.stream, struct{}{})
		what = "stream shed"
	case cmdRestore:
		sw.shed.del(cmd.stream)
		what = "stream restored"
	case cmdReport:
		b.report(p, &sw.status, obs.EvStatus, "switch", 0, "routes=%d switched=%d noroute=%d",
			len(sw.routes), b.swStats.Switched, b.swStats.NoRoute)
		return
	}
	b.trace.Emit(obs.EvReconfig, b.switchSrc, cmd.stream, what)
}

// routeSetTexts holds the trace text of every route of up to three
// outputs, indexed by outputsKey: a route change traces without
// formatting.
var routeSetTexts = func() (t [64]string) {
	var outs []Output
	var fill func()
	fill = func() {
		k, _ := outputsKey(outs)
		t[k] = fmt.Sprintf("route set: %v", outs)
		if len(outs) < 3 {
			for o := range numOutputs {
				outs = append(outs, o)
				fill()
				outs = outs[:len(outs)-1]
			}
		}
	}
	fill()
	return t
}()

// outputsKey numbers an output list of up to three outputs: each output
// is one base-4 digit, 1 to 3.
func outputsKey(outs []Output) (int, bool) {
	if len(outs) > 3 {
		return 0, false
	}
	k := 0
	for _, o := range outs {
		if o < 0 || o >= numOutputs {
			return 0, false
		}
		k = 4*k + int(o) + 1
	}
	return k, true
}

// routeSetText is the trace text of a route set to outs.
func routeSetText(outs []Output) string {
	if k, ok := outputsKey(outs); ok {
		return routeSetTexts[k]
	}
	return fmt.Sprintf("route set: %v", outs)
}

// streamsFor counts streams routed to a buffer slot.
func (b *Box) streamsFor(routes byStream[*Route], slot int) int {
	n := 0
	for _, e := range routes {
		for _, o := range e.v.Outputs {
			if slotMatches(o, slot) {
				n++
			}
		}
	}
	return n
}

// isAmongOldest reports whether r is within the k oldest of the n
// streams routed to slot, k at most n-1 (never all of them): whether
// fewer than k were opened before it. This runs per switched segment
// under degrade pressure, and counts without sorting or storing.
func (b *Box) isAmongOldest(routes byStream[*Route], r *Route, slot, k int) bool {
	n, older := 0, 0
	for _, e := range routes {
		for _, out := range e.v.Outputs {
			if slotMatches(out, slot) {
				n++
				if e.v.Opened < r.Opened {
					older++
				}
				break
			}
		}
	}
	return n > 1 && older < min(k, n-1)
}

func slotMatches(o Output, slot int) bool {
	switch o {
	case OutSpeaker:
		return slot == bufSpeaker
	case OutNetwork:
		return slot == bufNetAudio || slot == bufNetVideo
	case OutDisplay:
		return slot == bufDisplay
	}
	return false
}

// inputHandler is the server board's input device handler (figure 3.3),
// started once per input device — audioIn on the link from the audio
// board, captureIn on the fifo from the capture board, netIn on the
// network interface: it obtains a buffer in advance from the allocator,
// fills it with the next segment to arrive and launches its index into
// the switch. Copying the wire into the buffer is the data path's first
// copy (§3.4: "once into memory").
type inputHandler struct {
	b      *Box
	from   arrivals
	at     int // inGet … inSent
	buf    *allocator.Buffer
	w      segment.Wire // the segment being copied in
	stream uint32
}

// arrivals is an input device as its handler sees it.
type arrivals interface {
	// recv waits for the next arrival.
	recv(p *occam.Proc)
	// discard releases the arrival: the board is down.
	discard()
	// segment takes the arrival. It returns the whole, clean segment the
	// arrival completes, with one wire reference, its stream number and
	// the bytes its copy in is charged for — or false when there is none
	// yet, the arrival's reference kept or released as the device needs.
	segment() (w segment.Wire, stream uint32, charge int, ok bool)
}

// Where an input handler's step resumes.
const (
	inGet    = iota // make sure of a buffer
	inRecv          // wait for the next arrival
	inGot           // something has arrived
	inCopied        // the copy's CPU is spent: fill the buffer and send it on
	inSent          // the switch has it
)

func (h *inputHandler) Step(p *occam.Proc) {
	b := h.b
	for {
		switch h.at {
		case inGet:
			h.at = inRecv
			if h.buf == nil {
				// "obtain empty buffers ... in advance"
				if b.pool.GetInto(p, &h.buf); p.Parked() {
					return
				}
			}
		case inRecv:
			h.at = inGot
			if h.from.recv(p); p.Parked() {
				return
			}
		case inGot:
			h.at = inRecv
			if b.boardDown(p, boardServer) {
				h.from.discard() // the pre-fetched buffer waits for recovery
				continue
			}
			w, stream, charge, ok := h.from.segment()
			if !ok {
				continue
			}
			h.w, h.stream, h.at = w, stream, inCopied
			if p.Consume(time.Duration(charge) * serverCopyPerKB / 1024); p.Parked() {
				return
			}
		case inCopied:
			h.buf.SetPayload(h.w.Bytes())
			h.w.Release()
			h.buf.Stream = h.stream
			h.at = inSent
			if b.toSwitch.Send(p, h.buf); p.Parked() {
				return
			}
		case inSent:
			h.buf, h.w, h.at = nil, segment.Wire{}, inGet
		}
	}
}

// boardLink is a link from another board of the box: every arrival is
// a whole segment, preceded by its stream number.
type boardLink struct {
	link *occam.Link[wireMsg]
	msg  wireMsg
}

func (l *boardLink) recv(p *occam.Proc) { l.link.RecvInto(p, &l.msg) }

func (l *boardLink) discard() {
	l.msg.W.Release()
	l.msg = wireMsg{}
}

func (l *boardLink) segment() (segment.Wire, uint32, int, bool) {
	msg := l.msg
	l.msg = wireMsg{}
	return msg.W, msg.Stream, msg.W.Len(), true
}

// netInterface is the network interface; the VCI is the local stream
// number (§3.4). A segment's copy in is charged for the message that
// completes it: an interleaved video segment (A4) arrives in chunks,
// which partials gathers by VCI.
type netInterface struct {
	b        *Box
	m        atm.Message
	partials byStream[partial]
}

func (n *netInterface) recv(p *occam.Proc) { n.b.host.Rx.RecvInto(p, &n.m) }

func (n *netInterface) discard() {
	n.m.W.Release()
	n.m = atm.Message{}
}

func (n *netInterface) segment() (segment.Wire, uint32, int, bool) {
	b, m := n.b, n.m
	n.m = atm.Message{}
	w, corrupt, done := m.W, m.Corrupt, true
	switch {
	case m.ChunkTotal <= 1: // a whole segment
	case m.ChunkIndex < 0 || m.ChunkIndex >= m.ChunkTotal || m.ChunkTotal > maxChunks:
		corrupt = true // no honest sender numbers a chunk so
	default:
		w, corrupt, done = n.reassemble(m)
	}
	if !done {
		return segment.Wire{}, 0, 0, false
	}
	if corrupt {
		// "The current segment is thrown away" (§3.8), whole.
		b.swStats.CorruptDrops++
		b.streamDrop(m.VCI)
		b.trace.Emit(obs.EvDrop, b.cfg.Name+".netIn", m.VCI, "corrupt-discard")
		w.Release()
		return segment.Wire{}, 0, 0, false
	}
	return w, m.VCI, m.Size, true
}

// outputHandler is the server board's handler for an output device on
// another board of the box — audioOut for the loudspeaker, displayOut
// for the display: the copy out of the server buffer into a pooled wire
// is the device's single copy (§3.4: "once out for each output device"),
// the link to the board is occupied for the transfer of the segment and
// the header bytes preceding it, and the segment handed over, after which
// the buffer index is free to recycle.
type outputHandler struct {
	b   *Box
	dev *outputDevice
	at  int // outTake … outHanded
	buf *allocator.Buffer
	w   segment.Wire
}

// outputDevice is what differs between the output handlers, kept
// behind one pointer so that a handler fills one 64-byte cache line.
type outputDevice struct {
	from   *decouple.Buffer[*allocator.Buffer] // the device's decoupling buffer
	link   *occam.Link[wireMsg]
	header int // bytes preceding each segment on the link
	// handOver gives the board the transferred segment: a call, where the
	// receiving end is passive (audioDeliver), or a rendezvous with the
	// process there, which holds the handler — and so the link, and in
	// time the decoupling buffer — while the device is busy.
	handOver func(p *occam.Proc, msg wireMsg)
}

const (
	outTake   = iota // take the next segment, or wait for one
	outCopied        // the copy's CPU is spent: copy out and occupy the link
	outSent          // the transfer is done: hand over
	outHanded        // the board has it
)

func (h *outputHandler) Step(p *occam.Proc) {
	b, dev := h.b, h.dev
	for {
		switch h.at {
		case outTake:
			buf, ok := dev.from.TryRecv(p)
			if !ok {
				if dev.from.Wait(p); p.Parked() {
					return
				}
				continue
			}
			h.buf, h.at = buf, outCopied
			size := buf.Payload.Len() + dev.header
			if p.Consume(time.Duration(size) * serverCopyPerKB / 1024); p.Parked() {
				return
			}
		case outCopied:
			h.w, h.at = b.wires.Copy(h.buf.Payload.Bytes()), outSent
			if dev.link.Occupy(p, h.buf.Payload.Len()+dev.header); p.Parked() {
				return
			}
		case outSent:
			h.at = outHanded
			if dev.handOver(p, wireMsg{Stream: h.buf.Stream, W: h.w}); p.Parked() {
				return
			}
		case outHanded:
			b.pool.Release(p, h.buf)
			h.buf, h.w, h.at = nil, segment.Wire{}, outTake
		}
	}
}

// netTransmit occupies the network output process for a message's
// transmission time at the interface bandwidth.
func (b *Box) netTransmit(p *occam.Proc, size int) {
	p.Sleep(time.Duration(int64(size) * 8 * int64(time.Second) / b.cfg.NetInterfaceBits))
}

// netChunkSize is the A4 interleaving granularity.
const netChunkSize = 1024

// maxChunks is the most chunks netOut cuts a segment into, the bits of
// partial.have.
const maxChunks = 64

// partial is a VCI's interleaved video segment (A4) while its chunks
// arrive. Every chunk carries a reference to the same wire: the partial
// keeps the first chunk's and releases the rest.
type partial struct {
	w       segment.Wire
	seq     uint32
	total   int32
	have    uint64 // the chunk indices received, a bit each
	corrupt bool   // a chunk arrived corrupt
}

// reassemble adds chunk m to its VCI's partial segment, abandoning the
// partial of an earlier segment. Once every chunk is in it returns the
// segment's wire, with one reference, and whether any chunk was
// corrupt. A duplicate chunk adds nothing.
func (n *netInterface) reassemble(m atm.Message) (w segment.Wire, corrupt, done bool) {
	seq := m.W.Seq()
	pt := n.partials.ref(m.VCI)
	if pt.have == 0 || pt.seq != seq || pt.total != m.ChunkTotal {
		pt.w.Release() // abandon the stale partial, if any
		*pt = partial{w: m.W, seq: seq, total: m.ChunkTotal}
	} else {
		m.W.Release() // the partial already holds this segment's wire
	}
	pt.have |= 1 << m.ChunkIndex
	pt.corrupt = pt.corrupt || m.Corrupt
	if pt.have != uint64(1)<<pt.total-1 {
		return segment.Wire{}, false, false
	}
	w, corrupt = pt.w, pt.corrupt
	n.partials.del(m.VCI)
	return w, corrupt, true
}

// netOut is the network output process. Audio takes priority over
// video (principle 2, figure 3.7): the audio decoupling buffer is
// always polled first. Without InterleaveNetwork, a whole video
// segment is one network message, so "video segments can hold up
// following audio segments" (§4.2) on the shared first link. With it
// (A4) a video segment goes out in chunks and waiting audio is let
// through between them — which is why there are two segments in hand
// and not a stack: what the audio buffer holds is never chunked, so the
// send inside the chunk loop cannot nest again.
type netOut struct {
	b         *Box
	at        int       // noTake, noNext or noSend
	seg       [2]netSeg // the segment taken, and audio let through between its chunks
	d         int       // which of the two is being sent
	noCircuit reportGate
}

// netSeg is one segment on its way out, its server buffer still held,
// and how far the sending has got.
type netSeg struct {
	buf  *allocator.Buffer
	vcis []uint32 // its stream's network destinations
	vi   int      // the destination being served
	// w is the copy out of the server buffer (the network interface's
	// single copy, §3.4). Sent whole, every VCI shares it under its own
	// reference; chunked, each VCI has a copy and each chunk message a
	// reference to it.
	w      segment.Wire
	chunks int // per destination; 0: sent whole
	chunk  int // the chunk being sent
}

const (
	noTake = iota // take the next segment, audio first, or wait for one
	noNext        // find the segment's next message and occupy the interface for it
	noSend        // the transmission time is spent: hand it to the transport
)

func (n *netOut) Step(p *occam.Proc) {
	b := n.b
	audio, video := b.outBufs[bufNetAudio], b.outBufs[bufNetVideo]
	for {
		s := &n.seg[n.d]
		switch n.at {
		case noTake:
			buf, ok := audio.TryRecv(p) // principle 2: audio first
			if !ok {
				buf, ok = video.TryRecv(p)
			}
			if !ok {
				if audio.Wait(p); p.Parked() { // video shares audio's wake signal
					return
				}
				continue
			}
			n.begin(buf)
		case noNext:
			if s.vi == len(s.vcis) {
				// Sent to every destination — or to none: every copy was
				// moved away, or the subtree is shed.
				b.pool.Release(p, s.buf)
				*s = netSeg{}
				if n.d == 1 {
					n.d = 0 // back between the video segment's chunks
				} else {
					n.at = noTake
				}
				continue
			}
			size := s.w.Len()
			if s.chunks > 0 {
				if s.w.IsZero() {
					s.w = b.wires.Copy(s.buf.Payload.Bytes())
					s.w.Retain(s.chunks - 1)
				}
				// Drain any waiting audio first (principle 2 at chunk
				// granularity).
				if abuf, ok := audio.TryRecv(p); ok {
					n.d = 1
					n.begin(abuf)
					continue
				}
				size = s.chunkSize()
			}
			// Non-interleaved video occupies the interface for the whole
			// segment, holding up any audio waiting in its buffer (§4.2).
			n.at = noSend
			if b.netTransmit(p, size); p.Parked() {
				return
			}
		case noSend:
			n.at = noNext
			if n.send(p, s); p.Parked() {
				return
			}
		}
	}
}

// begin takes buf as the segment to send next: to every network
// destination of its stream, one descriptor per VCI, so a slow
// destination only affects its own circuit (principle 5 — drops happen
// inside the network, never here).
func (n *netOut) begin(buf *allocator.Buffer) {
	b, s := n.b, &n.seg[n.d]
	*s = netSeg{buf: buf, vcis: b.NetCopies(buf.Stream)}
	n.at = noNext
	if len(s.vcis) == 0 {
		return
	}
	// What is let through between chunks is itself sent whole.
	if n.d == 0 && b.cfg.InterleaveNetwork && buf.Payload.Type() == segment.TypeVideo {
		s.chunks = min((buf.Payload.Len()+netChunkSize-1)/netChunkSize, maxChunks)
		return
	}
	s.w = b.wires.Copy(buf.Payload.Bytes())
	s.w.Retain(len(s.vcis) - 1)
}

// chunkSize is the size of the chunk being sent: netChunkSize but for
// the last, which takes the rest.
func (s *netSeg) chunkSize() int {
	if s.chunk == s.chunks-1 {
		return s.w.Len() - s.chunk*netChunkSize
	}
	return netChunkSize
}

// send hands s's next message to the transport, which takes its wire
// reference unless it refuses the message, and moves s on to the one
// after. A transport that blocks parks the process with nothing left to
// do here.
func (n *netOut) send(p *occam.Proc, s *netSeg) {
	b := n.b
	m := atm.Message{VCI: s.vcis[s.vi], Size: s.w.Len(), W: s.w}
	if s.chunks > 0 {
		m.Size, m.ChunkIndex, m.ChunkTotal = s.chunkSize(), int32(s.chunk), int32(s.chunks)
	}
	err := b.host.Send(p, m)
	last := s.chunk >= s.chunks-1 // of this destination's messages
	if err != nil {
		// The circuit never took the reference, and will not be offered
		// the unsent chunks'.
		for i := s.chunk; i < max(s.chunks, 1); i++ {
			s.w.Release()
		}
		if s.chunks > 0 {
			b.report(p, &n.noCircuit, obs.EvDrop, "netOut", s.buf.Stream, "video chunk: %v", err)
		} else {
			kind := "audio"
			if s.buf.Payload.Type() == segment.TypeVideo {
				kind = "video"
			}
			b.report(p, &n.noCircuit, obs.EvDrop, "netOut", s.buf.Stream, "%s stream %d: %v", kind, s.buf.Stream, err)
		}
		last = true
	}
	if !last {
		s.chunk++
		return
	}
	s.vi++
	if s.chunks > 0 {
		s.chunk, s.w = 0, segment.Wire{}
	}
}

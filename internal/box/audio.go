package box

import (
	"time"

	"repro/internal/decouple"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
)

// The audio board (§3.5, figure 3.5): the codec produces a 16-byte
// block every 2 ms; the block handler batches blocks into Pandora
// segments and orders the server writer to transmit them, "a separate
// process to allow some concurrency in case the Server is busy". The
// incoming direction runs per-stream clawback buffers feeding the
// mixing code, which reads one block from each every 2 ms while a
// stream plays; an idle board's ticks are counted lazily.
//
// Priorities implement principle 1 on this box: the outgoing side
// (micReader, serverWriter) runs at High priority on the audio
// transputer, the incoming mixing at Low, so under CPU overload
// "incoming data streams [are] degraded before outgoing data
// streams".

func (b *Box) startAudio() {
	rt, name := b.rt, b.cfg.Name
	b.micOutBuf = decouple.New[wireMsg](rt, name+".micbuf", 8, b.cfg.Obs)
	b.tickWake.Init(name, ".tickwake")

	rt.GoStep(name+".micReader", b.audioNode, occam.High, newMicReader(b))
	rt.GoStep(name+".serverWriter", b.audioNode, occam.High, &serverWriter{b: b})
	rt.GoStep(name+".blockHandler", b.audioNode, occam.Low, &blockHandler{b: b, n: 1})
}

// The audio board's processes are stackless (occam.GoStep): each is a
// struct holding what its loop would keep in locals, and at, the wait
// its step function resumes after. A step sets at before it calls the
// primitive that may wait, and returns if that parked the process.

// micReader is the outgoing side of the block handler: every 2 ms it
// takes the codec block, applies muting, and batches blocks into
// segments for the server writer. Segments are stamped "as close as
// possible to the data source" (§3.2).
type micReader struct {
	b  *Box
	at int // micSleep, micWoke or micCharged
	n  int64

	// The accumulating segment is built in place: blocks are filled
	// directly into the tail of a reused sample buffer and the Audio
	// header is reset around it per segment. WirePool.Encode copies the
	// bytes out, so both are recycled immediately after the single
	// encode.
	stream  uint32
	adata   []byte // accumulated samples of the segment being built
	nblocks int
	aseg    segment.Audio
	stampAt occam.Time
	seq     uint32
	perSeg  int

	// The guard slice is built once: Recv overwrites cmd wholesale on
	// every fire, so the variable can be reused across ticks.
	cmd    audioCmd
	guards []occam.Guard
}

const (
	micSleep   = iota // about to sleep until tick n
	micWoke           // at tick n: commands, then the block's charge
	micCharged        // the block's CPU is spent: take it
)

func newMicReader(b *Box) *micReader {
	m := &micReader{b: b, perSeg: b.cfg.BlocksPerSegment}
	m.guards = []occam.Guard{occam.Recv(b.audioCmds, &m.cmd), occam.Skip()}
	return m
}

func (m *micReader) Step(p *occam.Proc) {
	for {
		switch m.at {
		case micSleep:
			m.at = micWoke
			if p.SleepUntil(occam.Time(m.n * int64(segment.BlockDuration))); p.Parked() {
				return
			}
		case micWoke:
			// Commands are taken between blocks (principle 4): "A command
			// will be received as soon as the process has finished
			// dealing with any current segment." A closed microphone's
			// tick is only this poll.
			for p.Alt(m.guards...) == 0 {
				m.command()
			}
			if !m.b.micOpen {
				m.n, m.at = m.n+1, micSleep
				continue
			}
			m.at = micCharged
			if p.Consume(audioOutgoingCost); p.Parked() {
				return
			}
		case micCharged:
			m.block(p)
			m.n, m.at = m.n+1, micSleep
		}
	}
}

// command applies the audio command just received, at tick n.
func (m *micReader) command() {
	b, cmd := m.b, &m.cmd
	switch {
	case cmd.StartMic != nil:
		m.stream, m.seq = *cmd.StartMic, 0
		m.nblocks = 0
		b.setMicOpen(m.n, true)
		b.trace.Emit(obs.EvStreamOpen, b.cfg.Name+".mic", m.stream, "mic started")
	case cmd.StopMic:
		b.setMicOpen(m.n, false)
		b.trace.Emit(obs.EvStreamClose, b.cfg.Name+".mic", m.stream, "mic stopped")
	}
}

// block takes the codec block of tick n into the segment being built
// and, when that completes it, hands the segment to the server writer.
func (m *micReader) block(p *occam.Proc) {
	b := m.b
	if m.nblocks == 0 {
		// Stamp at the first sample's entry to the codec — the
		// start of this block's 2 ms sampling window — so
		// measured latency is mouth-to-ear like the paper's 8 ms
		// figure (§4.2). The codec samples on its own hardware
		// clock, so the window start is the nominal tick, not the
		// (contention-dependent) instant this process got
		// scheduled; stamping nominally also charges any software
		// delay at the source to the measured latency instead of
		// hiding it.
		m.stampAt = occam.Time((m.n - 1) * int64(segment.BlockDuration))
		m.adata = m.adata[:0]
	}
	if cap(m.adata) < len(m.adata)+segment.BlockSamples {
		m.adata = append(m.adata, make([]byte, segment.BlockSamples)...)
	} else {
		m.adata = m.adata[:len(m.adata)+segment.BlockSamples]
	}
	blk := m.adata[len(m.adata)-segment.BlockSamples:]
	b.cfg.Mic.FillBlock(blk)
	if b.cfg.Features.Muting {
		b.muter.ApplyMic(int64(p.Now()), blk)
	}
	m.nblocks++
	b.audioStat.MicBlocks++
	if m.nblocks < m.perSeg {
		return
	}
	// The single encode at the capture source (§3.4): from here
	// to the output device only the wire descriptor moves.
	w := b.wires.Encode(m.aseg.Reset(m.seq, m.stampAt, m.adata))
	m.seq++
	m.nblocks = 0
	if !b.micOutBuf.Deliver(p, wireMsg{Stream: m.stream, W: w}) {
		// Back pressure reached the source: throw away data
		// here, closest to the codec (§3.7.1).
		w.Release()
		b.audioStat.MicDrops++
		b.trace.Emit(obs.EvDrop, b.cfg.Name+".mic", m.stream, "mic-backpressure")
	} else {
		b.audioStat.MicSegs++
	}
}

// serverWriter drains the audio board's decoupling buffer over the
// 20 Mbit/s link to the server.
type serverWriter struct {
	b   *Box
	at  int // wrTake, wrSent or wrTaken
	msg wireMsg
}

const (
	wrTake  = iota // take the next segment, or wait for one
	wrSent         // the link transfer is done: offer the segment to the server
	wrTaken        // the server has it
)

func (s *serverWriter) Step(p *occam.Proc) {
	b := s.b
	for {
		switch s.at {
		case wrTake:
			msg, ok := b.micOutBuf.TryRecv(p)
			if !ok {
				if b.micOutBuf.Wait(p); p.Parked() {
					return
				}
				continue
			}
			s.msg, s.at = msg, wrSent
			if b.audioToServer.Occupy(p, msg.W.Len()+segment.StreamNumberSize); p.Parked() {
				return
			}
		case wrSent:
			s.at = wrTaken
			if b.audioToServer.Rendezvous(p, s.msg); p.Parked() {
				return
			}
		case wrTaken:
			s.msg, s.at = wireMsg{}, wrTake
		}
	}
}

// audioDeliver is the audio board's end of the link from the server:
// it feeds an arrived speaker-bound segment to its stream's clawback
// buffer. Input runs "without data loss as far as the decoupling
// buffers" — any dropping is the clawback buffers' decision. It spends
// no virtual time and waits on nothing, so the server's audioOut
// calls it when the transfer completes. A delivery that puts a stream
// back in playing wakes a parked block handler.
func (b *Box) audioDeliver(p *occam.Proc, msg wireMsg) {
	if b.boardDown(p, boardAudio) {
		msg.W.Release()
		return
	}
	b.mix.Deliver(msg.Stream, msg.W)
	if b.tickParked && b.mix.ActiveStreams() > 0 {
		b.tickParked = false
		b.tickWake.Raise()
	}
}

// tickCost is the CPU of a mixing tick in which mixed streams played,
// per the §4.2 calibration (costs.go).
func (b *Box) tickCost(mixed int) time.Duration {
	f := b.cfg.Features
	cost := audioTickBase + time.Duration(mixed)*audioMixCost
	if f.JitterCorrection {
		cost += time.Duration(mixed) * audioClawCost
	}
	if f.Muting {
		cost += audioMuteCost
	}
	if f.Interface {
		cost += audioInterfaceCost
	}
	return cost
}

// silentTickDone is how long after its instant a silent tick's grant
// completes: its own CPU, queued while the microphone is open behind the
// block that takes the audio node first at every tick instant.
func (b *Box) silentTickDone() time.Duration {
	d := b.tickCost(0)
	if b.micOpen {
		d += audioOutgoingCost
	}
	return d
}

// setMicOpen opens or closes the microphone at its tick n. A skipped
// tick counts as run once silentTickDone has passed, and that offset
// changes here: the grid, if parked, parks again from n, counting the
// ticks before it, all complete.
func (b *Box) setMicOpen(n int64, open bool) {
	if b.mix.Parked() && open != b.micOpen {
		b.mix.Park(n * int64(segment.BlockDuration))
	}
	b.micOpen = open
}

// blockHandler is the incoming side: every 2 ms while a stream plays it
// mixes one block from each active stream's clawback buffer and plays
// it to the codec, observing the output for the muting detector. With
// nothing playing it parks on tickWake until a delivery, and the
// board's silent ticks are counted lazily (Mixer.Park, AudioStats).
// CPU cost is accounted per the §4.2 calibration; ticks that overrun
// the 2 ms budget are the measure of audio-board overload (experiment
// E1).
//
// Parking keeps the schedule: the handler is the box's only Low
// process, so a delivery at a tick instant has run before that tick
// would have, and a silent tick's grant never delays the microphone's,
// which takes the node first at each instant and leaves it free long
// before the next.
type blockHandler struct {
	b        *Box
	at       int // bhSleep … bhMixed
	n        int64
	deadline occam.Time
}

const (
	bhSleep  = iota // about to sleep until tick n
	bhParked        // parked with nothing playing, or woken by a delivery: rejoin the grid
	bhWoke          // at, or past, tick n: mix
	bhMixed         // the mixing pass's CPU is spent: account the tick
)

func (h *blockHandler) Step(p *occam.Proc) {
	b := h.b
	for {
		switch h.at {
		case bhSleep:
			h.deadline, h.at = occam.Time(h.n*int64(segment.BlockDuration)), bhWoke
			if p.SleepUntil(h.deadline); p.Parked() {
				return
			}
		case bhParked:
			// Rejoin at the first tick instant not before the delivery,
			// which that tick pops.
			bd := int64(segment.BlockDuration)
			h.n = (int64(p.Now()) + bd - 1) / bd
			h.deadline, h.at = occam.Time(h.n*bd), bhWoke
			if p.SleepUntil(h.deadline); p.Parked() {
				return
			}
		case bhWoke:
			start := p.Now()
			if start > h.deadline+occam.Time(segment.BlockDuration) {
				// We are more than a whole block late: account the
				// missed ticks rather than replaying them all. This is
				// principle 1's overload signal on the audio board.
				missed := int64(start-h.deadline) / int64(segment.BlockDuration)
				h.n += missed
				b.audioStat.LateTicks += uint64(missed)
				b.trace.Emit(obs.EvOverload, b.cfg.Name+".audio", 0, "mixing tick overran")
			}
			blk, mixed := b.mix.Tick(int64(start))
			if b.cfg.Features.Muting {
				b.muter.ObserveSpeaker(int64(start), blk)
			}
			// One grant for the pass: the outgoing side's High requests
			// preempt it (occam.Node).
			h.at = bhMixed
			if p.Consume(b.tickCost(mixed)); p.Parked() {
				return
			}
		case bhMixed:
			b.audioStat.TicksRun++
			if p.Now() > h.deadline.Add(segment.BlockDuration) {
				b.audioStat.LateTicks++
			}
			h.n, h.at = h.n+1, bhSleep
			if next := h.n * int64(segment.BlockDuration); b.mix.ActiveStreams() == 0 && int64(p.Now()) < next {
				// Every tick until a delivery would mix silence.
				b.mix.Park(next)
				b.tickParked, h.at = true, bhParked
				if b.tickWake.Wait(p); p.Parked() {
					return
				}
			}
		}
	}
}

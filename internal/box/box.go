// Package box assembles the Pandora's Box of paper §1 and §3: five
// transputer boards — capture, mixer (display), audio, server and
// network — as an Occam process network on the virtual-time runtime,
// connected by 20 Mbit/s links and 100 Mbit/s fifos, with the server
// switching segment buffers between input and output device handlers
// under the eight design principles.
//
// A Box is controlled the way the host workstation controlled the
// real one: commands set up per-stream routes and start sources, and
// "the data will then flow indefinitely without any further
// interaction with the host" (§1.2). Reports from every process are
// multiplexed to the host log, the obs event trace (see report).
//
// A stage is a process only if it spends virtual time or must block
// independently of its caller: 12 per box. The decoupling buffers
// between them, the buffer allocator and the audio board's end of the
// link from the server are passive. Every process is
// stackless (occam.GoStep: a struct holding its loop's state and a step
// function the dispatch loop calls), so a box starts no goroutine. The
// audio board mixes every 2 ms while a stream plays; an idle board's
// ticks are counted lazily, and its block handler takes no turn.
//
// A box also holds only the memory it has used. State a box may never
// need is built on first use: the capture board's camera and stream
// table at its first stream and its framestore at the first frame a
// stream is open, the display board's decoder and assemblers at its
// first segment, the switch's drop counts at its first drop, each
// decoupling ring's storage at its first push, each server buffer when
// a grant finds none recycled (package allocator), and each latency
// histogram's multiset at its first fold. A stream's state on a board
// is one record in a byStream table, a slice in stream order: a box
// keeps no map keyed by stream or VCI.
//
// Ownership: each box owns one segment.WirePool. Sources (mic,
// camera) encode into it; the server switch Retains once per extra
// output before fanning a wire out; every sink (speaker mixer,
// display, network transmit) Releases the reference it was handed.
// Wires arriving from the network belong to the sender's pool — the
// receiving board copies the bytes into its own pool and Releases the
// incoming reference, so no wire outlives its box and the data is
// copied "once into memory, and once out for each output device"
// (§3.4).
package box

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/allocator"
	"repro/internal/atm"
	"repro/internal/decouple"
	"repro/internal/degrade"
	"repro/internal/faultinject"
	"repro/internal/mixer"
	"repro/internal/muting"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/video"
	"repro/internal/workload"
)

// Output identifies an output device handler on the server board.
type Output int

const (
	// OutSpeaker routes a stream to the audio board for mixing.
	OutSpeaker Output = iota
	// OutNetwork routes a stream to the ATM network output.
	OutNetwork
	// OutDisplay routes a stream to the mixer board for display.
	OutDisplay
	numOutputs
)

func (o Output) String() string {
	switch o {
	case OutSpeaker:
		return "speaker"
	case OutNetwork:
		return "network"
	case OutDisplay:
		return "display"
	}
	return "?"
}

// Route is one stream's entry in the switch's private tables: which
// outputs receive its segments and, for the network, the outgoing
// VCI. "The tables are updated without disturbing the flows of data
// when commands are received" (principle 6).
type Route struct {
	Stream  uint32
	Outputs []Output
	// NetVCIs are the outgoing VCIs for OutNetwork — one per network
	// destination; splitting a stream to several boxes lists several
	// (the tannoy configuration, §4.1). The list is the stream's whole
	// fan-out: the box sends on exactly these, so empty means nowhere.
	NetVCIs []uint32
	Opened  occam.Time // for principle 3: oldest degrade first
	// Video marks the stream for the overload controller's
	// video-before-audio ordering. Routes with an OutDisplay output
	// are video regardless; outgoing camera routes (OutNetwork only)
	// must set it.
	Video bool
	// Relay marks an interior distribution-tree route: the stream both
	// plays locally and fans copies to downstream boxes. The overload
	// controller sheds such a stream per-subtree — the forwarded
	// copies stop, the local playout survives.
	Relay bool
	// shed is the overload controller's suspension at the switch
	// (cmdShed), which a route replacing this one carries over.
	shed bool
}

// switchCommand updates the switch tables or requests a report: op
// applies to stream, and cmdSet installs route, which the switch keeps
// as its table entry, so the sender must not change it after.
// cmdShed/cmdRestore suspend and resume a routed stream, its outputs
// untouched (the overload controller's lever: data stops, state stays).
type switchCommand struct {
	op     int
	stream uint32
	route  *Route
}

// The switch commands.
const (
	cmdSet = iota
	cmdClose
	cmdShed
	cmdRestore
	cmdReport
)

// Features toggles the optional audio-board work of §4.2, which costs
// CPU: "only three if we have jitter correction, muting, an outgoing
// stream and the interface code running at the same time".
type Features struct {
	JitterCorrection bool
	Muting           bool
	Interface        bool
}

// Config parameterises a Box. Zero values select paper defaults.
type Config struct {
	Name string
	// BlocksPerSegment sets outgoing audio batching (default 2 = 4 ms,
	// principle 7; dynamically alterable by command).
	BlocksPerSegment int
	// Mic is the microphone source (default silence).
	Mic workload.AudioSource
	// CameraW/H size the camera field (default 128×64).
	CameraW, CameraH int
	// Features enables the optional audio-board work.
	Features Features
	// InterleaveNetwork enables the A4 ablation: video segments are
	// chunked at the network output so audio can interleave between
	// chunks (the paper's code did NOT do this — "segment
	// transmissions are not interleaved", §4.2).
	InterleaveNetwork bool
	// SharedNetBuffer is the A2 ablation: audio and video share one
	// decoupling buffer before the network output instead of the
	// split of figure 3.7, so audio loses its priority (principle 2).
	SharedNetBuffer bool
	// NetInterfaceBits is the network interface bandwidth in bits per
	// second. "The first limit that tends to be exceeded in normal
	// operation is the bandwidth of the interface to the network"
	// (§3.7.1): the network output process is occupied for the
	// transmission time of each segment, and without InterleaveNetwork
	// a large video segment holds up following audio (§4.2).
	NetInterfaceBits int64
	// Obs, if non-nil, registers every board's counters and gauges
	// (labelled with the box name) and traces lifecycle, drop and
	// overload events. core.System sets it automatically.
	Obs *obs.Registry
	// Crashes injects board crash windows, keyed by board name (one of
	// CrashBoards): while a board is down, its input handlers discard
	// arriving data — counted on fault_crash_drops_total — and recover
	// cleanly when the window ends (§3.8: failures must not propagate).
	Crashes map[string][]faultinject.Window
	// SinkStalls injects output-device stalls, keyed by decoupling
	// buffer slot name ("speaker", "net-audio", "net-video",
	// "display"): while a window is open the slot's consumer freezes
	// and the buffer absorbs (then sheds) the backlog — the decoupling
	// failure mode of §3.7.1.
	SinkStalls map[string][]faultinject.Window
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "pandora"
	}
	if c.BlocksPerSegment <= 0 {
		c.BlocksPerSegment = segment.DefaultBlocksPerSegment
	}
	if c.Mic == nil {
		c.Mic = workload.Silence{}
	}
	if c.CameraW <= 0 {
		c.CameraW = 128
	}
	if c.CameraH <= 0 {
		c.CameraH = 64
	}
	if c.NetInterfaceBits <= 0 {
		c.NetInterfaceBits = 100_000_000
	}
	return c
}

// wireMsg carries one encoded segment plus its stream number over
// inter-board links ("streams within pandora pass the stream number in
// an extra field preceding the segment header"). The wire is passed by
// reference: links move the descriptor, never the sample bytes.
type wireMsg struct {
	Stream uint32
	W      segment.Wire
}

// audioCmd controls the audio board's outgoing side.
type audioCmd struct {
	StartMic *uint32
	StopMic  bool
}

// captureCmd controls the capture board.
type captureCmd struct {
	Start   *CameraStream
	Stop    uint32
	HasStop bool
}

// CameraStream describes one outgoing video stream (§3.6): an
// arbitrary rectangle of the camera field at a fractional frame rate,
// split into SegsPerFrame rectangular segments.
type CameraStream struct {
	Stream       uint32
	Rect         video.Rect
	Rate         video.Rate
	SegsPerFrame int
}

// Box is one simulated Pandora's Box.
type Box struct {
	cfg Config
	rt  *occam.Runtime

	// Transputers (figure 1.2).
	audioNode, serverNode, captureNode, mixerNode *occam.Node

	host *atm.Host

	// Server board.
	pool      *allocator.Pool
	toSwitch  *occam.Chan[*allocator.Buffer]
	switchCmd *occam.Chan[switchCommand]
	outBufs   [numOutputs + 1]*decouple.Buffer[*allocator.Buffer]
	swStats   SwitchStats
	drops     *byStream[uint64] // segments dropped per stream; nil until the first drop
	// mirror holds the routes the host has installed, as the box's own
	// view of them (the switch's table is private to its process).
	mirror byStream[hostRoute]
	// copiesHi is the high-water mark of outgoing copies any single
	// stream fanned to — the per-hop copy invariant's witness.
	copiesHi int

	crash *crashState // nil unless cfg.Crashes is set

	// wires recycles the box's wire storage: sources encode into it,
	// output handlers copy out of server buffers into it, and sinks
	// release back to it. One pool per box — the runtime serialises all
	// process code, so the boards can share it without locking.
	wires *segment.WirePool

	// Links between boards (figure 1.3).
	audioToServer   *occam.Link[wireMsg]
	serverToAudio   *occam.Link[wireMsg]
	captureToServer *occam.Link[wireMsg]
	serverToMixer   *occam.Link[wireMsg]

	// Audio board.
	audioCmds *occam.Chan[audioCmd]
	mix       *mixer.Mixer
	muter     *muting.Muter
	micOutBuf *decouple.Buffer[wireMsg]
	audioStat AudioStats // TicksRun without the skipped ticks (AudioStats adds them)
	micOpen   bool
	// tickWake wakes the block handler, parked while tickParked because
	// nothing plays.
	tickParked bool
	tickWake   occam.Signal

	// Capture board.
	captureCmds *occam.Chan[captureCmd]
	framestore  *video.Framestore // nil until a frame has a stream open

	// Mixer (display) board.
	displayStat DisplayStats

	// Instruments.
	trace     *obs.Tracer
	switchSrc string // the switch's trace source, Name + ".switch"
}

// SwitchStats counts the server switch's work.
type SwitchStats struct {
	Switched     uint64
	NoRoute      uint64
	FullDrops    [numOutputs + 1]uint64 // per output, buffer-full drops
	AgeDrops     [numOutputs + 1]uint64 // principle-3 proactive drops
	ShedDrops    uint64                 // overload-controller sheds
	CorruptDrops uint64                 // injected-corruption discards at net input
}

// hostRoute is one stream's entry in a box's mirror of its routes: the
// Route the host installed, which the switch holds too and neither
// changes, and whether the overload controller has its copies parked.
type hostRoute struct {
	r *Route
	// parked holds back a relay's forwarded copies while the overload
	// controller has the stream shed: the subtree's copies stop, the
	// local playout keeps running (the per-subtree shed target).
	parked bool
}

// video reports the route's media class: a route to the display, or
// one marked Video, is video.
func (r *Route) video() bool { return r.Video || slices.Contains(r.Outputs, OutDisplay) }

// incoming reports whether the route delivers locally only: no copy
// goes to the network.
func (r *Route) incoming() bool { return !slices.Contains(r.Outputs, OutNetwork) }

// AudioStats counts the audio board's work.
type AudioStats struct {
	TicksRun  uint64
	LateTicks uint64 // ticks that overran their 2 ms budget
	MicBlocks uint64
	MicSegs   uint64
	MicDrops  uint64 // dropped at the audio board's decoupling buffer
}

// DisplayStats counts the mixer board's work.
type DisplayStats struct {
	Segments   uint64
	Frames     uint64
	DecodeErrs uint64
	FrameLat   *obs.Histogram
}

// New builds a box, registers it as host cfg.Name on net, and starts
// every board process. The caller drives the runtime.
func New(rt *occam.Runtime, net *atm.Network, cfg Config) *Box {
	cfg = cfg.withDefaults()
	b := &Box{
		cfg:         cfg,
		rt:          rt,
		audioNode:   occam.NewNode(cfg.Name + ".audioT"),
		serverNode:  occam.NewNode(cfg.Name + ".serverT"),
		captureNode: occam.NewNode(cfg.Name + ".captureT"),
		mixerNode:   occam.NewNode(cfg.Name + ".mixerT"),
		host:        net.AddHost(cfg.Name),
		toSwitch:    occam.NewChan[*allocator.Buffer](rt, cfg.Name+".toswitch"),
		switchCmd:   occam.NewChan[switchCommand](rt, cfg.Name+".switchcmd"),
		audioCmds:   occam.NewChan[audioCmd](rt, cfg.Name+".audiocmd"),
		captureCmds: occam.NewChan[captureCmd](rt, cfg.Name+".capturecmd"),
		wires:       segment.NewWirePool(),
	}
	b.displayStat.FrameLat = obs.NewHistogram()
	b.pool = allocator.New(rt, b.serverNode, poolBuffers, nil)
	b.pool.Observe(cfg.Obs, cfg.Name)
	b.trace = cfg.Obs.Tracer()
	b.switchSrc = cfg.Name + ".switch"
	b.observe()

	// Inter-board links (figure 1.2/1.3 bandwidths).
	b.audioToServer = occam.NewLink[wireMsg](rt, cfg.Name+".a2s", audioLinkBandwidth)
	b.serverToAudio = occam.NewLink[wireMsg](rt, cfg.Name+".s2a", audioLinkBandwidth)
	b.captureToServer = occam.NewLink[wireMsg](rt, cfg.Name+".c2s", fifoBandwidth)
	b.serverToMixer = occam.NewLink[wireMsg](rt, cfg.Name+".s2m", fifoBandwidth)

	b.mix = mixer.New(mixer.Config{Obs: cfg.Obs, Name: cfg.Name})
	b.muter = muting.New(muting.Config{})

	b.startServer()
	b.startAudio()
	b.startCapture()
	b.startDisplay()
	return b
}

// observe registers the box's row on its registry (no-op when none is
// configured). The counters themselves stay plain struct fields on the
// hot paths; the registry reads them through the table's columns.
func (b *Box) observe() {
	lb := obs.L("box", b.cfg.Name)
	boxTable.Register(b.cfg.Obs, b, lb)
	// Board-crash fault accounting, only when faults are configured so
	// clean runs keep a clean namespace.
	if len(b.cfg.Crashes) > 0 {
		b.crash = new(crashState)
		crashTable.Register(b.cfg.Obs, b, lb)
	}
}

// boxTable is a box's counters: the server board's switch, the audio
// board and the mixer (display) board.
var boxTable = obs.NewTable(boxColumns()...)

func boxColumns() []obs.Column[*Box] {
	cols := []obs.Column[*Box]{
		obs.CounterOf("switch_switched_total", func(b *Box) uint64 { return b.swStats.Switched }),
		obs.CounterOf("switch_noroute_total", func(b *Box) uint64 { return b.swStats.NoRoute }),
		obs.CounterOf("switch_shed_drops_total", func(b *Box) uint64 { return b.swStats.ShedDrops }),
		obs.CounterOf("server_corrupt_drops_total", func(b *Box) uint64 { return b.swStats.CorruptDrops }),
		obs.GaugeOf("net_copies_max", func(b *Box) float64 { return float64(b.copiesHi) }),

		obs.CounterOf("audio_ticks_total", func(b *Box) uint64 { return b.AudioStats().TicksRun }),
		obs.CounterOf("audio_late_ticks_total", func(b *Box) uint64 { return b.audioStat.LateTicks }),
		obs.CounterOf("audio_mic_blocks_total", func(b *Box) uint64 { return b.audioStat.MicBlocks }),
		obs.CounterOf("audio_mic_segments_total", func(b *Box) uint64 { return b.audioStat.MicSegs }),
		obs.CounterOf("audio_mic_drops_total", func(b *Box) uint64 { return b.audioStat.MicDrops }),
		obs.HistogramOf("audio_playout_latency_ms", func(b *Box) *obs.Histogram { return b.mix.PlayoutAll() }),

		obs.CounterOf("display_segments_total", func(b *Box) uint64 { return b.displayStat.Segments }),
		obs.CounterOf("display_frames_total", func(b *Box) uint64 { return b.displayStat.Frames }),
		obs.CounterOf("display_decode_errors_total", func(b *Box) uint64 { return b.displayStat.DecodeErrs }),
	}
	for slot := 0; slot < numOutBufs; slot++ {
		out := obs.L("output", slotName(slot))
		cols = append(cols,
			obs.CounterOf("switch_full_drops_total", func(b *Box) uint64 { return b.swStats.FullDrops[slot] }, out),
			obs.CounterOf("switch_age_drops_total", func(b *Box) uint64 { return b.swStats.AgeDrops[slot] }, out))
	}
	return cols
}

// CrashBoards are the boards a crash window can take down, in the order
// of a box's crash counters.
var CrashBoards = [...]string{"server", "audio", "display"}

// Indices into CrashBoards.
const (
	boardServer = iota
	boardAudio
	boardDisplay
)

// crashState is a box's injected board-crash accounting, by CrashBoards
// index: arrivals discarded, and whether this outage is traced yet (once
// per outage, not per segment).
type crashState struct {
	drops  [len(CrashBoards)]uint64
	traced [len(CrashBoards)]bool
}

// crashTable is a box's board-crash drop counters, one per board.
var crashTable = obs.NewTable(
	obs.CounterOf("fault_crash_drops_total", func(b *Box) uint64 { return b.crash.drops[boardServer] }, obs.L("board", "server")),
	obs.CounterOf("fault_crash_drops_total", func(b *Box) uint64 { return b.crash.drops[boardAudio] }, obs.L("board", "audio")),
	obs.CounterOf("fault_crash_drops_total", func(b *Box) uint64 { return b.crash.drops[boardDisplay] }, obs.L("board", "display")),
)

// boardDown reports whether an injected crash window covers board (a
// CrashBoards index) now, counting each discarded arrival and tracing
// once per outage.
func (b *Box) boardDown(p *occam.Proc, board int) bool {
	if b.crash == nil {
		return false
	}
	now := p.Now()
	if !slices.ContainsFunc(b.cfg.Crashes[CrashBoards[board]], func(w faultinject.Window) bool { return w.Contains(now) }) {
		b.crash.traced[board] = false
		return false
	}
	b.crash.drops[board]++
	if !b.crash.traced[board] {
		b.crash.traced[board] = true
		b.trace.Emit(obs.EvFault, b.cfg.Name+"."+CrashBoards[board], 0, "board crashed: discarding input")
	}
	return true
}

// streamDrop counts one segment of stream dropped at the server board.
func (b *Box) streamDrop(stream uint32) {
	if b.drops == nil {
		b.drops = new(byStream[uint64])
	}
	*b.drops.ref(stream)++
}

// StreamDrops returns how many of stream's segments the server board
// dropped: shed, degraded for age, refused by a full output or
// discarded as corrupt.
func (b *Box) StreamDrops(stream uint32) (n uint64) {
	if b.drops != nil {
		n, _ = b.drops.get(stream)
	}
	return n
}

// Host returns the box's network endpoint.
func (b *Box) Host() *atm.Host { return b.host }

// Mixer returns the destination audio mixer (for stream statistics).
func (b *Box) Mixer() *mixer.Mixer { return b.mix }

// SwitchStats returns a copy of the switch counters.
func (b *Box) SwitchStats() SwitchStats { return b.swStats }

// AudioStats returns a copy of the audio board counters. TicksRun counts
// a skipped silent tick once its grant would have completed.
func (b *Box) AudioStats() AudioStats {
	st := b.audioStat
	st.TicksRun += b.mix.Skipped(int64(b.rt.Now().Add(-b.silentTickDone())))
	return st
}

// DisplayStats returns the display counters.
func (b *Box) DisplayStats() DisplayStats { return b.displayStat }

// --- Control interface (host commands, §1.2) ---

// SetRoute installs or replaces a stream's route in the switch, its
// fan-out list included; the change applies between segments
// (principle 6). The caller hands over r's slices: the box keeps them
// as the route, so the caller must not change them after.
func (b *Box) SetRoute(p *occam.Proc, r Route) {
	if r.Opened == 0 {
		r.Opened = p.Now()
	}
	if len(r.NetVCIs) > b.copiesHi {
		b.copiesHi = len(r.NetVCIs)
	}
	b.mirror.set(r.Stream, hostRoute{r: &r}) // a new fan-out supersedes a parked one
	b.switchCmd.Send(p, switchCommand{op: cmdSet, stream: r.Stream, route: &r})
}

// CloseRoute removes a stream's route. Other streams are undisturbed
// (principle 6). The mixer retires the stream: its clawback storage is
// freed once it runs dry.
func (b *Box) CloseRoute(p *occam.Proc, stream uint32) {
	b.mix.Retire(stream)
	b.mirror.del(stream)
	b.switchCmd.Send(p, switchCommand{op: cmdClose, stream: stream})
}

// NetCopies returns the VCIs the box currently sends stream's copies
// on, in send order. The slice is the box's own: read it only.
func (b *Box) NetCopies(stream uint32) []uint32 {
	if hr, ok := b.mirror.get(stream); ok && !hr.parked {
		return hr.r.NetVCIs
	}
	return nil
}

// MaxNetCopies returns the most outgoing copies any single stream ever
// fanned to at this box — the witness for the per-hop copy invariant
// (an interior tree box carries at most K copies).
func (b *Box) MaxNetCopies() int { return b.copiesHi }

// StartMic begins the outgoing microphone stream with the given
// stream number. Its route must be installed with SetRoute.
func (b *Box) StartMic(p *occam.Proc, stream uint32) {
	b.audioCmds.Send(p, audioCmd{StartMic: &stream})
}

// StopMic stops the outgoing microphone stream.
func (b *Box) StopMic(p *occam.Proc) {
	b.audioCmds.Send(p, audioCmd{StopMic: true})
}

// StartCamera begins an outgoing video stream.
func (b *Box) StartCamera(p *occam.Proc, cs CameraStream) {
	b.captureCmds.Send(p, captureCmd{Start: &cs})
}

// StopCamera stops an outgoing video stream.
func (b *Box) StopCamera(p *occam.Proc, stream uint32) {
	b.captureCmds.Send(p, captureCmd{Stop: stream, HasStop: true})
}

// RequestSwitchReport asks the switch for a status report in the host
// log.
func (b *Box) RequestSwitchReport(p *occam.Proc) {
	b.switchCmd.Send(p, switchCommand{op: cmdReport})
}

// Reports (§1.2): "Reports are collected from all main processes, and
// multiplexed together. They are usually in the form of text messages
// generated when Pandora is overloaded, when some error has been
// detected, when a command has requested some information, or on
// occasion just to say that everything is all right. Reports are sent
// to the host computer for display or logging." The host log is the obs
// event trace, and a report is one event of it.

// reportMinPeriod rate-limits repeats: "send messages on the report
// channel as soon as possible subject to a minimum period between
// reports for any particular sort of error".
const reportMinPeriod = 100 * time.Millisecond

// reportGate is one sort of report's rate limit: when it last went out.
type reportGate struct {
	last occam.Time
	sent bool
}

// report traces a report from process unless one of g's sort went out
// within the minimum period. Tracing is an append — zero virtual time —
// so it can never stall a time-critical process.
func (b *Box) report(p *occam.Proc, g *reportGate, kind obs.EventKind, process string, stream uint32, format string, args ...any) {
	now := p.Now()
	if g.sent && now.Sub(g.last) < reportMinPeriod {
		return
	}
	g.last, g.sent = now, true
	b.trace.EmitAt(now, kind, b.cfg.Name+"."+process, stream, fmt.Sprintf(format, args...))
}

// WirePoolStats exposes the box's wire pool allocation counters.
func (b *Box) WirePoolStats() (gets, news uint64, free int) {
	return b.wires.Gets, b.wires.News, b.wires.FreeLen()
}

// WirePoolLeaked returns the number of the box's pooled wires still
// checked out — zero once every sink has drained and released.
func (b *Box) WirePoolLeaked() int { return b.wires.Leaked() }

// BufferPressure is the occupancy of the fuller decoupling buffer of
// each media class.
func (b *Box) BufferPressure() (video, audio float64) {
	bufs := &b.outBufs
	return max(bufs[bufNetVideo].Occupancy(), bufs[bufDisplay].Occupancy()),
		max(bufs[bufNetAudio].Occupancy(), bufs[bufSpeaker].Occupancy())
}

// --- degrade.Target: the overload controller's levers ---

// DegradeName implements degrade.Target.
func (b *Box) DegradeName() string { return b.cfg.Name }

// DegradeStreams implements degrade.Target from the route mirror, in
// stream-id order for deterministic controller decisions.
func (b *Box) DegradeStreams() []degrade.StreamInfo {
	out := make([]degrade.StreamInfo, 0, len(b.mirror))
	for _, e := range b.mirror {
		r := e.v.r
		out = append(out, degrade.StreamInfo{
			ID: e.id, Video: r.video(), Incoming: r.incoming(), Opened: r.Opened,
		})
	}
	return out
}

// DegradeShed suspends a stream at the switch, which may park p until
// the switch takes the command; DegradeSettle then bars incoming audio
// at the mixer too.
func (b *Box) DegradeShed(p *occam.Proc, id uint32) {
	if hr, ok := b.mirror.get(id); ok && hr.r.Relay {
		// Per-subtree shed: an overloaded interior tree box stops its
		// forwarded copies (its downstream subtree degrades) but keeps
		// its own playout — shedding at the switch would kill both.
		if !hr.parked {
			hr.parked = true
			b.mirror.set(id, hr)
			b.trace.Emit(obs.EvReconfig, b.switchSrc, id, "subtree shed")
		}
		return
	}
	b.switchCmd.Send(p, switchCommand{op: cmdShed, stream: id})
}

// DegradeRestore resumes a shed stream, at the switch as DegradeShed
// suspended it.
func (b *Box) DegradeRestore(p *occam.Proc, id uint32) {
	if hr, ok := b.mirror.get(id); ok && hr.parked {
		hr.parked = false
		b.mirror.set(id, hr)
		b.trace.Emit(obs.EvReconfig, b.switchSrc, id, "subtree restored")
		return
	}
	b.switchCmd.Send(p, switchCommand{op: cmdRestore, stream: id})
}

// DegradeSettle implements degrade.Target. A stream shed at the switch
// that plays here as audio is barred at the mixer as well, so its
// clawback buffer drains instead of starving into concealment noise; a
// restore lifts the bar. A subtree shed, its copies still parked, leaves
// the mixer alone, and the bar a subtree restore lifts was never set.
func (b *Box) DegradeSettle(id uint32, shed bool) {
	if !shed {
		b.mix.SetShed(id, false)
		return
	}
	if hr, ok := b.mirror.get(id); ok && !hr.parked && hr.r.incoming() && !hr.r.video() {
		b.mix.SetShed(id, true)
	}
}

// Package mixer implements Pandora's destination-side audio mixing
// (paper §2.0, §3.7.2, §3.8): any number of incoming audio streams
// are mixed by software in real time, each arriving through its own
// clawback buffer; "a 2ms block is read from the output end of each
// buffer every 2ms by the audio mixing code".
//
// Stream lifecycle is fully adaptive (principle 8): "the audio code
// does not have to be informed of the creation or deletion of
// streams; it just adapts to the incoming data". A block arriving for
// an unknown stream creates its clawback buffer; a buffer found empty
// at mixing time is deactivated and removed. Retire is a hint, not a
// command: a stream whose route has closed gives its buffer's storage
// back once it runs dry.
//
// Error recovery follows §3.8: segments carry sequence numbers, so
// the destination detects missing segments as soon as a later one
// arrives; for audio we "replay the last 2ms block, and try to ensure
// that it does not happen frequently" — concealment is bounded so
// repeated loss degrades to silence rather than a garbled loop.
package mixer

import (
	"slices"
	"strconv"

	"repro/internal/clawback"
	"repro/internal/mulaw"
	"repro/internal/obs"
	"repro/internal/segment"
)

// MaxConcealBlocks bounds how many replayed blocks one sequence gap
// may insert ("Replaying the last 2ms block occasionally is perfectly
// acceptable... replaying 2ms blocks frequently gives a garbled
// effect").
const MaxConcealBlocks = 4

// Config parameterises a Mixer. Each stream's clawback buffer has the
// paper's defaults and draws on one pool of clawback.DefaultPoolBlocks
// shared by the mixer's streams.
type Config struct {
	// Obs, if non-nil, registers per-stream and pool instruments
	// (labelled with Name) and traces stream lifecycle and drops.
	Obs *obs.Registry
	// Name identifies this mixer in metrics and traces (usually the
	// box name; default "mixer").
	Name string
}

// StreamStats reports one stream's reception history. The counters are
// plain fields of the stream, which a registry attached to the mixer
// reads from the stream's row.
type StreamStats struct {
	Segments       uint64 // segments delivered
	Blocks         uint64 // blocks delivered
	LostSegments   uint64 // detected by sequence-number gaps
	Concealed      uint64 // blocks filled by replaying the last block
	LateDuplicates uint64 // late or duplicate segments thrown away (§3.8)
	Reactivations  uint64 // times the stream was re-created after idle
	// Digest is an FNV-1a hash over every delivered segment's sequence
	// number and sample bytes, in arrival order — the stream's delivery
	// set as one comparable word. Two runs delivered byte-identical
	// audio for this stream iff their digests and Segments counts match
	// (the scenario layer's "survivors byte-identical" assertion).
	Digest   uint64
	Clawback clawback.Stats
}

// streamCounters are one stream's counts, which its registry row reads.
type streamCounters struct {
	segments      uint64
	blocks        uint64
	lost          uint64
	concealed     uint64
	lateDups      uint64
	reactivations uint64
}

// stream is one incoming audio stream's destination state. lastBlock
// is an owned copy of the most recent block — concealment must not
// alias wire storage that may be recycled before the replay plays.
type stream struct {
	id        uint32
	buf       *clawback.Buffer
	nextSeq   uint32
	seenAny   bool
	lastBlock [segment.BlockSamples]byte
	haveLast  bool
	active    bool
	retired   bool // its route has closed: Retire
	digest    uint64
	c         streamCounters
}

// Mixer mixes any number of incoming audio streams into one outgoing
// 2 ms block per tick. Not safe for concurrent use (it lives inside
// the audio transputer's block handler process).
type Mixer struct {
	cfg    Config
	source string // the trace source, Name + ".mixer"
	pool   *clawback.Pool
	// streams is every stream ever created, in ascending id order, the
	// order of mixing: arrival order must not leak into audio. A board
	// carries a handful, found by binary search; one is inserted when
	// created and never deleted, for its counters are its figures. A
	// retired stream's clawback storage is freed once it runs dry.
	streams []*stream
	// playing is the active streams in the same order: all a tick
	// visits. Deliver inserts a stream when it creates or reactivates
	// it; Tick drops one whose buffer it finds empty, SetShed one it
	// sheds.
	playing []*stream
	ticks   uint64 // run or skipped

	// A board with nothing to play parks its tick grid (Park): each tick it
	// skips would mix silence, so it is counted as its instant passes, not
	// run. skipped is how many of ticks were, and parkedAt the instant of
	// the first skipped tick not yet in them.
	parked   bool
	parkedAt int64
	skipped  uint64

	// shed holds streams suspended by the overload controller
	// (internal/degrade): their deliveries are discarded until restored.
	shed      map[uint32]bool
	shedDrops uint64

	// out is per-tick scratch, reused: the returned block is valid
	// until the next Tick.
	out [segment.BlockSamples]byte

	// OnPlayout, if set, is called for every block played with the
	// stream id, the block's source timestamp and the playout time
	// (both nanoseconds of stream time) — the end-to-end latency
	// instrument for experiment E3.
	OnPlayout func(stream uint32, stamp, now int64)

	// Clock, if set, reads stream time (nanoseconds): how far Ticks counts
	// the ticks of a parked grid. A mixer that is parked needs it.
	Clock func() int64
}

// New returns a mixer with the given configuration.
func New(cfg Config) *Mixer {
	if cfg.Name == "" {
		cfg.Name = "mixer"
	}
	m := &Mixer{
		cfg:    cfg,
		source: cfg.Name + ".mixer",
		pool:   clawback.NewPool(),
	}
	mixerTable.Register(cfg.Obs, m, obs.L("box", cfg.Name))
	return m
}

// mixerTable is a mixer's shed drops, tick count and active streams,
// and its shared clawback pool's occupancy and refusals.
var mixerTable = obs.NewTable(
	obs.CounterOf("mixer_shed_drops_total", func(m *Mixer) uint64 { return m.shedDrops }),
	obs.GaugeOf("clawback_pool_used", func(m *Mixer) float64 { return float64(m.pool.Used()) }),
	obs.GaugeOf("clawback_pool_capacity", func(m *Mixer) float64 { return float64(m.pool.Capacity()) }),
	obs.CounterOf("clawback_pool_exhausted_total", func(m *Mixer) uint64 { return m.pool.Exhausted }),
	obs.GaugeOf("mixer_active_streams", func(m *Mixer) float64 { return float64(m.ActiveStreams()) }),
	obs.CounterOf("mixer_ticks_total", (*Mixer).Ticks),
)

// streamTable is one incoming stream's reception counts.
var streamTable = obs.NewTable(
	obs.CounterOf("mixer_segments_total", func(s *stream) uint64 { return s.c.segments }),
	obs.CounterOf("mixer_blocks_total", func(s *stream) uint64 { return s.c.blocks }),
	obs.CounterOf("mixer_lost_segments_total", func(s *stream) uint64 { return s.c.lost }),
	obs.CounterOf("mixer_concealed_total", func(s *stream) uint64 { return s.c.concealed }),
	obs.CounterOf("mixer_late_duplicates_total", func(s *stream) uint64 { return s.c.lateDups }),
	obs.CounterOf("mixer_reactivations_total", func(s *stream) uint64 { return s.c.reactivations }),
)

// ActiveStreams returns the number of streams currently mixing.
func (m *Mixer) ActiveStreams() int { return len(m.playing) }

// search returns where stream id is in list, which is in id order, or
// where it would go, and whether it is there: a binary search written
// as a plain loop, so a segment's lookup calls no comparison closure.
func search(list []*stream, id uint32) (int, bool) {
	lo, hi := 0, len(list)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); list[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(list) && list[lo].id == id
}

// find returns stream id, or where in streams it would go.
func (m *Mixer) find(id uint32) (s *stream, at int, ok bool) {
	at, ok = search(m.streams, id)
	if ok {
		s = m.streams[at]
	}
	return s, at, ok
}

// play puts an activated stream into playing, in id order.
func (m *Mixer) play(s *stream) {
	at, _ := search(m.playing, s.id)
	m.playing = slices.Insert(m.playing, at, s)
}

// Stats returns the reception statistics for a stream, which persist
// across deactivations.
func (m *Mixer) Stats(id uint32) StreamStats {
	s, _, ok := m.find(id)
	if !ok {
		return StreamStats{}
	}
	return StreamStats{
		Segments:       s.c.segments,
		Blocks:         s.c.blocks,
		LostSegments:   s.c.lost,
		Concealed:      s.c.concealed,
		LateDuplicates: s.c.lateDups,
		Reactivations:  s.c.reactivations,
		Digest:         s.digest,
		Clawback:       s.buf.Stats(),
	}
}

// newStream creates destination state for stream id, registering its
// row and its clawback buffer's.
func (m *Mixer) newStream(id uint32) *stream {
	sid := strconv.FormatUint(uint64(id), 10)
	s := &stream{
		id:     id,
		buf:    clawback.New(clawback.Config{Pool: m.pool, Obs: m.cfg.Obs, Owner: m.cfg.Name + "/" + sid}),
		active: true,
		digest: fnvOffset,
	}
	streamTable.Register(m.cfg.Obs, s, obs.L("box", m.cfg.Name), obs.L("stream", sid))
	return s
}

// Deliver feeds one arriving audio segment for stream id into its
// clawback buffer, creating or reactivating the stream as needed and
// concealing any sequence gap. It reads headers and sample blocks in
// place from the wire and consumes one wire reference: queued blocks
// alias the wire under their own references (one Retain per item);
// whatever is not queued costs nothing and the wire is released.
func (m *Mixer) Deliver(id uint32, w segment.Wire) {
	tr := m.cfg.Obs.Tracer()
	if m.shed[id] {
		// The overload controller shed this stream: discard the
		// segment (releasing its wire) until DegradeRestore.
		m.shedDrops++
		tr.Emit(obs.EvDrop, m.source, id, "degrade-shed")
		w.Release()
		return
	}
	s, at, ok := m.find(id)
	if !ok {
		s = m.newStream(id)
		m.streams = slices.Insert(m.streams, at, s)
		m.play(s)
		tr.Emit(obs.EvStreamOpen, m.source, id, "stream created")
	} else if !s.active {
		// "If a block arrives for a stream that does not have a
		// buffer, a new clawback buffer will be inserted, and mixing
		// will resume."
		s.active = true
		m.play(s)
		s.c.reactivations++
		tr.Emit(obs.EvStreamOpen, m.source, id, "stream reactivated")
	}
	s.c.segments++

	seq := w.Seq()
	blocks := w.AudioBlocks()
	base := int64(segment.TimestampTime(w.Timestamp()))

	// Sequence-gap detection and bounded concealment (§3.8).
	if s.seenAny && seq != s.nextSeq {
		// Signed 32-bit difference so sequence wraparound and late
		// duplicates both classify correctly.
		gap := int(int32(seq - s.nextSeq)) // whole missing segments
		if gap > 0 {
			s.c.lost += uint64(gap)
			conceal := min(gap*blocks, MaxConcealBlocks)
			if conceal > 0 && s.haveLast {
				// One owned copy per gap episode, shared by every
				// replayed block queued for it.
				replay := append([]byte(nil), s.lastBlock[:]...)
				for i := 0; i < conceal; i++ {
					stamp := base - int64(conceal-i)*int64(segment.BlockDuration)
					if s.buf.PushItem(clawback.Item{Data: replay, Stamp: stamp}) != clawback.DropNone {
						break
					}
					s.c.concealed++
				}
			}
		} else {
			// A negative gap is a late duplicate or reordering: the
			// general rule applies — "the current segment is thrown
			// away" (§3.8). Queueing its blocks would play duplicated
			// audio, so the payload is discarded; the stream still
			// resynchronises to the duplicate's sequence number.
			s.c.lateDups++
			tr.Emit(obs.EvDrop, m.source, id, "late-duplicate")
			s.nextSeq = seq + 1
			w.Release()
			return
		}
	}
	s.nextSeq = seq + 1
	s.seenAny = true

	s.digest = fnvFold(s.digest, byte(seq), byte(seq>>8), byte(seq>>16), byte(seq>>24))
	for i := 0; i < blocks; i++ {
		blk := w.AudioBlock(i)
		s.digest = fnvFold(s.digest, blk...)
		w.Retain(1) // the queued item's reference; dropped items release it
		s.buf.PushItem(clawback.Item{
			Data:  blk,
			Stamp: base + int64(i)*int64(segment.BlockDuration),
			W:     w,
		})
	}
	if blocks > 0 {
		copy(s.lastBlock[:], w.AudioBlock(blocks-1))
		s.haveLast = true
	}
	s.c.blocks += uint64(blocks)
	w.Release()
}

// requantise maps a µ-law byte to Encode(Decode(b)): the mix of one
// stream, whose decoded samples never clip.
var requantise = mulaw.NewScaleTable(1)

// Tick produces the next mixed 2 ms block of µ-law samples at stream
// time now (nanoseconds). Streams whose buffers are empty contribute
// silence and are deactivated; with no active streams the returned
// block is pure silence.
//
// mixed reports how many streams contributed audio — the mixing work
// done this tick, which the audio board accounts CPU time for. The
// per-sample work follows it: none for silence, a table lookup for one
// stream, and for more a decoded sum, clipped and re-encoded.
//
// The returned block is scratch storage reused by the next Tick;
// callers must finish with it (play it, copy it) before then. A tick on
// a parked grid restarts it, counting the ticks skipped before now.
func (m *Mixer) Tick(now int64) (block []byte, mixed int) {
	if m.parked {
		m.fold(now)
		m.parked = false
	}
	m.ticks++
	out := &m.out
	var sum [segment.BlockSamples]int32
	kept := m.playing[:0]
	for _, s := range m.playing {
		it, ok := s.buf.PopItem()
		if !ok {
			// "The time saved when a clawback buffer is found to be
			// empty is used to deactivate the stream."
			m.deactivate(s)
			m.cfg.Obs.Tracer().Emit(obs.EvStreamClose, m.source, s.id, "stream deactivated")
			continue
		}
		kept = append(kept, s)
		in := (*[segment.BlockSamples]byte)(it.Data)
		switch mixed {
		case 0:
			*out = *in // copied out before the wire is released
		case 1:
			for i := range sum {
				sum[i] = int32(mulaw.Decode(out[i])) + int32(mulaw.Decode(in[i]))
			}
		default:
			for i := range sum {
				sum[i] += int32(mulaw.Decode(in[i]))
			}
		}
		if m.OnPlayout != nil {
			m.OnPlayout(s.id, it.Stamp, now)
		}
		it.W.Release() // the sample data has been mixed out
		mixed++
	}
	m.playing = kept
	switch mixed {
	case 0:
		for i := range out {
			out[i] = mulaw.Silence
		}
	case 1:
		requantise.Apply(out[:])
	default:
		for i, v := range sum {
			out[i] = mulaw.Encode(int16(min(max(v, -32768), 32767)))
		}
	}
	return out[:], mixed
}

// SetShed suspends (or, with shed=false, resumes) mixing of stream id
// on the overload controller's orders. Shedding drains the stream's
// clawback buffer — releasing its queued wire references back to the
// pool — and deactivates it; subsequent deliveries are discarded and
// counted on mixer_shed_drops_total. Restoring simply lifts the bar:
// the next delivery reactivates the stream through the normal adaptive
// path (principle 8).
func (m *Mixer) SetShed(id uint32, shed bool) {
	if !shed {
		delete(m.shed, id)
		return
	}
	if m.shed[id] {
		return
	}
	if m.shed == nil {
		m.shed = make(map[uint32]bool)
	}
	m.shed[id] = true
	if s, _, ok := m.find(id); ok && s.active {
		at, _ := search(m.playing, id)
		m.playing = slices.Delete(m.playing, at, at+1)
		m.deactivate(s)
		m.cfg.Obs.Tracer().Emit(obs.EvStreamClose, m.source, id, "stream shed")
	}
}

// deactivate takes s out of play, releasing its queued blocks, and
// frees its buffer's storage when it is retired.
func (m *Mixer) deactivate(s *stream) {
	s.active = false
	if s.retired {
		s.buf.Free()
	} else {
		s.buf.Drain()
	}
}

// Retire marks stream id's route closed: its clawback storage is freed
// as soon as it runs dry, now if it has. A straggler still reactivates
// it, and grows its buffer anew. Its Stats stay.
func (m *Mixer) Retire(id uint32) {
	s, _, ok := m.find(id)
	if !ok {
		return
	}
	s.retired = true
	if !s.active {
		s.buf.Free()
	}
}

// Ticks returns how many mixing ticks have run, those a parked grid
// skips counted as their instants pass.
func (m *Mixer) Ticks() uint64 {
	if !m.parked {
		return m.ticks
	}
	return m.ticks + m.pending(m.Clock())
}

// Park stops the tick grid at instant next, with no stream playing: until
// the next Tick the board runs none, for each would only mix silence
// ("just adapts to the incoming data", principle 8). On a parked grid it
// counts the ticks skipped before next and parks again from there.
func (m *Mixer) Park(next int64) {
	if m.parked {
		m.fold(next)
	}
	m.parked, m.parkedAt = true, next
}

// Parked reports whether the grid is parked.
func (m *Mixer) Parked() bool { return m.parked }

// Skipped returns how many ticks the grid has skipped: those counted by a
// Park or Tick, and those since with instants at or before t.
func (m *Mixer) Skipped(t int64) uint64 { return m.skipped + m.pending(t) }

// pending is how many ticks of the parked grid not yet counted have
// instants at or before t.
func (m *Mixer) pending(t int64) uint64 {
	if !m.parked || t < m.parkedAt {
		return 0
	}
	return uint64((t-m.parkedAt)/int64(segment.BlockDuration)) + 1
}

// fold counts the parked grid's ticks before instant at.
func (m *Mixer) fold(at int64) {
	n := m.pending(at - 1)
	m.ticks += n
	m.skipped += n
}

// FNV-1a, folded inline so the delivery digest costs no allocation on
// the per-segment path.
const fnvOffset = 14695981039346656037

func fnvFold(h uint64, bs ...byte) uint64 {
	for _, b := range bs {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

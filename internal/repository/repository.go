// Package repository implements the Pandora repository: a network
// node that records live streams and plays them back (§3.2, §4.1 —
// "stored audio streams are used for video recording, playback, and
// videomail applications").
//
// Two paper-specific behaviours:
//
//   - Priority reversal (§2.1): "incoming data streams should be
//     recorded as accurately as possible, even if that means degrading
//     streams that are currently being played out. It is a simple
//     matter to play a stream again, but recording one again could
//     present greater difficulties."
//   - Off-line re-segmentation (§3.2): live 2 ms-block segments are
//     split and merged "to form 40ms long segments containing 320
//     bytes of data plus a new 36 byte header", cutting the disk space
//     taken by headers. "These can be played back directly to any
//     Pandora box."
//
// Timestamp offsets between streams recorded together are kept so
// they can be resynchronised at playback (§3.2: "streams to be
// synchronised during playback must have been recorded on the same
// repository, where their timestamp offsets are recorded").
package repository

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/occam"
	"repro/internal/segment"
)

// Recording is one stored stream.
type Recording struct {
	Stream   uint32
	Segments []*segment.Audio
	// FirstTimestamp is the stream's timestamp offset, recorded so
	// streams captured together can be resynchronised at playback.
	FirstTimestamp uint32
	// LostSegments counts sequence gaps observed while recording.
	LostSegments uint64
	// Corrupt and LateDuplicates count the segments thrown away as a
	// box throws them away (§3.8): those marked corrupt, and those
	// whose sequence number is behind the next expected one.
	Corrupt, LateDuplicates uint64

	next uint32 // the sequence number expected next
}

// Blocks returns the total number of 2 ms blocks stored.
func (r *Recording) Blocks() int {
	n := 0
	for _, s := range r.Segments {
		n += s.Blocks()
	}
	return n
}

// Duration returns the audio time stored.
func (r *Recording) Duration() time.Duration {
	return time.Duration(r.Blocks()) * segment.BlockDuration
}

// StoredBytes returns the wire bytes the recording occupies,
// including every segment header — what the re-segmentation reduces.
func (r *Recording) StoredBytes() int {
	n := 0
	for _, s := range r.Segments {
		n += s.WireSize()
	}
	return n
}

// HeaderOverhead returns header bytes as a fraction of stored bytes.
func (r *Recording) HeaderOverhead() float64 {
	total := r.StoredBytes()
	if total == 0 {
		return 0
	}
	headers := len(r.Segments) * segment.AudioHeaderSize
	return float64(headers) / float64(total)
}

// Resegment performs the off-line merge: 2 ms blocks are split out
// and re-grouped into 40 ms segments (320 data bytes + 36 byte
// header), renumbered from zero with timestamps rebased onto the
// original first block. A trailing partial group keeps its shorter
// length, so no audio is lost.
func (r *Recording) Resegment() *Recording {
	var blocks [][]byte
	for _, s := range r.Segments {
		for i := 0; i < s.Blocks(); i++ {
			blocks = append(blocks, s.Block(i))
		}
	}
	out := &Recording{
		Stream:         r.Stream,
		FirstTimestamp: r.FirstTimestamp,
		LostSegments:   r.LostSegments,
		Corrupt:        r.Corrupt,
		LateDuplicates: r.LateDuplicates,
	}
	base := segment.TimestampTime(r.FirstTimestamp)
	for i, seq := 0, uint32(0); i < len(blocks); seq++ {
		end := i + segment.RepositoryBlocksPerSegment
		if end > len(blocks) {
			end = len(blocks)
		}
		at := base.Add(time.Duration(i) * segment.BlockDuration)
		out.Segments = append(out.Segments, segment.NewAudio(seq, at, blocks[i:end]))
		i = end
	}
	return out
}

// Repository is the network node. It records every circuit addressed
// to it and can play recordings back over outgoing circuits.
type Repository struct {
	rt   *occam.Runtime
	host *atm.Host
	pool *segment.WirePool // playback wires
	recs map[uint32]*Recording
}

// New creates a repository as network host name and starts its
// recorder process. The recorder runs at High priority — the §2.1
// reversal: recording is never starved by playback.
func New(rt *occam.Runtime, net *atm.Network, name string) *Repository {
	r := &Repository{
		rt:   rt,
		host: net.AddHost(name),
		pool: segment.NewWirePool(),
		recs: make(map[uint32]*Recording),
	}
	rt.Go(name+".recorder", nil, occam.High, r.runRecorder)
	return r
}

// Host returns the repository's network endpoint.
func (r *Repository) Host() *atm.Host { return r.host }

// Recording returns the recording for a VCI (nil if nothing arrived).
func (r *Repository) Recording(vci uint32) *Recording { return r.recs[vci] }

// runRecorder stores what a box would play of each arriving audio
// stream: a corrupt segment is thrown away, and shows as lost when the
// next one arrives; a late or duplicate one is thrown away, and the
// stream resynchronises to its sequence number, as the mixer does.
func (r *Repository) runRecorder(p *occam.Proc) {
	for {
		m := r.host.Rx.Recv(p)
		if m.W.IsZero() {
			continue
		}
		// Decoding copies the sample data out of the wire — the
		// repository's single copy as a sink (§3.4) — so the recording
		// owns its bytes after the wire is released.
		seg, err := m.W.DecodeAudio()
		m.W.Release()
		if err != nil {
			continue // video recording stores segments opaquely; audio only here
		}
		rec, ok := r.recs[m.VCI]
		if !ok {
			rec = &Recording{Stream: m.VCI}
			r.recs[m.VCI] = rec
		}
		if m.Corrupt {
			rec.Corrupt++
			continue
		}
		gap := int(int32(seg.Seq - rec.next))
		rec.next = seg.Seq + 1
		switch {
		case len(rec.Segments) == 0:
			rec.FirstTimestamp = seg.Timestamp
		case gap < 0:
			rec.LateDuplicates++
			continue
		default:
			rec.LostSegments += uint64(gap)
		}
		rec.Segments = append(rec.Segments, seg)
	}
}

// Playback replays a recording over an outgoing circuit at its
// original cadence, from a new process. Segments keep their stored
// headers — re-segmented 40 ms segments "can be played back directly
// to any Pandora box", whose mixer accepts any mixture of sizes.
// Playback runs at Low priority (recording wins under overload).
func (r *Repository) Playback(rec *Recording, vci uint32) {
	r.rt.Go(fmt.Sprintf("playback.%d", vci), nil, occam.Low, func(p *occam.Proc) {
		start := p.Now()
		elapsed := time.Duration(0)
		for _, s := range rec.Segments {
			p.SleepUntil(start.Add(elapsed))
			// Encode into a pooled wire and re-stamp in place so the
			// destination clawback measures real network delay, not
			// archive age.
			w := r.pool.Encode(s)
			w.SetTimestamp(segment.Timestamp(p.Now()))
			if err := r.host.Send(p, atm.Message{VCI: vci, Size: w.Len(), W: w}); err != nil {
				w.Release()
				return
			}
			elapsed += s.Duration()
		}
	})
}

package video

import (
	"slices"

	"repro/internal/segment"
)

// Assembly (§3.6): "We do not display any part of a video frame until
// all of the segments have been received, otherwise the effect of a
// tear can be seen when part of the image is moving parallel to a
// segment boundary."

// AssemblyStats reports a per-stream assembler's history.
type AssemblyStats struct {
	Complete   uint64 // frames delivered whole
	Abandoned  uint64 // frames dropped because a newer frame arrived
	Duplicates uint64 // repeated segment numbers discarded
}

// Assembler collects the rectangular segments of one stream's frames
// and releases each frame only when complete.
type Assembler struct {
	width, height int
	current       uint32 // frame number being assembled
	started       bool
	have          []bool // by segment number; len is the frame's NumSegments
	got           int    // segments in have
	img           *Frame // the frame being assembled, cleared and reused for the next
	stats         AssemblyStats
}

// NewAssembler returns an assembler for a stream whose frames are
// width×height.
func NewAssembler(width, height int) *Assembler {
	return &Assembler{width: width, height: height}
}

// Add decodes one video segment with c straight into the frame being
// assembled, at its rectangle, which must lie within the frame; lines
// that do not decode are an error found before anything changes. When
// the segment completes a frame, the whole frame is returned; otherwise
// nil. The frame is the assembler's own storage, valid until the Add
// that starts the next frame. A segment of a newer frame abandons the
// one in progress (late segments of old frames are discarded — the
// general §3.8 rule, the current segment is thrown away). A segment
// numbered at or past the NumSegments its frame began with counts as a
// duplicate: it cannot be one of the pieces the frame is waiting for.
func (a *Assembler) Add(hdr *segment.Video, c *Codec) (*Frame, error) {
	w, h := int(hdr.Width), int(hdr.NumLines)
	rows, even, err := frameBand(w, h, hdr.Data)
	if err != nil {
		return nil, err
	}
	if !a.started || hdr.FrameNumber != a.current {
		if a.started && int32(hdr.FrameNumber-a.current) < 0 {
			// A late segment of an older frame.
			a.stats.Duplicates++
			return nil, nil
		}
		if a.InProgress() {
			a.stats.Abandoned++
		}
		a.current = hdr.FrameNumber
		a.started = true
		a.have = slices.Grow(a.have[:0], int(hdr.NumSegments))[:hdr.NumSegments]
		clear(a.have)
		a.got = 0
		if a.img == nil {
			a.img = NewFrame(a.width, a.height)
		} else {
			clear(a.img.Pix)
		}
	}
	if hdr.SegmentNum >= uint32(len(a.have)) || a.have[hdr.SegmentNum] {
		a.stats.Duplicates++
		return nil, nil
	}
	band := a.img.View(Rect{X: int(hdr.XOffset), Y: int(hdr.YOffset), W: w, H: h})
	c.decodeBand(&band, hdr.Data, rows, even)
	a.have[hdr.SegmentNum] = true
	a.got++
	if a.got == len(a.have) {
		a.started = false
		a.stats.Complete++
		return a.img, nil
	}
	return nil, nil
}

// InProgress reports whether a partial frame is waiting for segments.
func (a *Assembler) InProgress() bool { return a.started && a.got > 0 }

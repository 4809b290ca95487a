package box

import (
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/video"
	"repro/internal/workload"
)

// The capture board (§3.6): the camera writes the framestore
// continuously; for each open stream, rectangles are read at the
// stream's fractional frame rate, timed against the camera scan so a
// block is never read while being written, compressed line by line
// and despatched as one or more Pandora segments per frame, "each of
// which is despatched as soon as the data is ready, reducing
// latencies and buffering requirements".
//
// The mixer (display) board: video data is assembled per frame; "We
// do not display any part of a video frame until all of the segments
// have been received", and the copy to the display buffer is timed
// against the display scan.
//
// Both boards' loops are stackless, written like the audio board's
// (audio.go).

func (b *Box) startCapture() {
	b.rt.GoStep(b.cfg.Name+".capture", b.captureNode, occam.High, newCapture(b))
}

func (b *Box) startDisplay() {
	b.rt.GoStep(b.cfg.Name+".display", b.mixerNode, occam.High, newDisplay(b))
}

// capture drives the camera at 25 Hz and produces segments for every
// open stream. What serving a stream takes is behind *captureWork, built
// at the board's first stream: a board that never sends video polls for
// commands once a frame and holds no more than that needs.
type capture struct {
	b     *Box
	at    int // capSleep … capTaken
	frame int // the camera frame being served, numbered from time zero
	scan  video.Scan

	// Built once, as the micReader's: Recv overwrites cmd on every fire.
	cmd    captureCmd
	guards [2]occam.Guard

	*captureWork // nil until the first stream opens
}

// captureWork is the capture board's state for serving streams.
type captureWork struct {
	camera  *workload.Camera
	streams byStream[*camStream] // the open streams

	// The frame in progress: the stream streams[si] being served, its
	// band s of nsegs, rows lines each, and the band's segment on its way
	// to the server.
	si, s       int
	nsegs, rows int
	cs          *camStream
	band        video.Rect
	msg         wireMsg

	// Per-board scratch, reused every band: the codec, the packed
	// segment data and the header around it (copied on into the wire by
	// Encode), and the header's one compression argument.
	lp     video.LineParams
	codec  video.Codec
	packed []byte
	seg    segment.Video
	args   [1]uint32
}

// camStream is one open stream of the capture board: what it was started
// with, and the numbers of its next frame and next segment.
type camStream struct {
	CameraStream
	frameSeq, segSeq uint32
}

const (
	capSleep   = iota // about to sleep until the frame's instant
	capWoke           // at the frame's instant: commands, then the frame's streams
	capStream         // about to serve stream streams[si], or end the frame
	capBand           // about to time band s against the scan, or end the stream
	capRead           // the band is safe to read: read, compress and charge it
	capCharged        // the band's CPU is spent: occupy the fifo to the server
	capSent           // the transfer is done: offer the segment to the server
	capTaken          // the server has it
)

func newCapture(b *Box) *capture {
	c := &capture{
		b:    b,
		scan: video.Scan{Lines: b.cfg.CameraH, Period: video.FramePeriod},
	}
	c.guards = [2]occam.Guard{occam.Recv(b.captureCmds, &c.cmd), occam.Skip()}
	return c
}

func newCaptureWork(b *Box) *captureWork {
	w := &captureWork{
		camera: workload.NewCamera(b.cfg.CameraW, b.cfg.CameraH),
		lp:     video.LineParams{Shift: 1},
	}
	w.args[0] = uint32(w.lp.Shift)
	return w
}

func (c *capture) Step(p *occam.Proc) {
	b := c.b
	for {
		switch c.at {
		case capSleep:
			// A frame that overran runs the next back to back.
			c.at = capWoke
			if p.SleepUntil(occam.Time(int64(c.frame) * int64(video.FramePeriod))); p.Parked() {
				return
			}
		case capWoke:
			// Commands between frames (principles 4 and 6). With no
			// stream open a frame is only this poll.
			for p.Alt(c.guards[:]...) == 0 {
				c.command()
			}
			if c.captureWork == nil || len(c.streams) == 0 {
				c.frame, c.at = c.frame+1, capSleep
				continue
			}
			// The camera updates the framestore. With no stream open
			// nothing could read it before the next frame overwrites it, so
			// the picture is drawn only when a stream is open, and it is
			// frame c.frame's whichever frames went undrawn. The store
			// itself is built at the first such frame.
			if b.framestore == nil {
				b.framestore = video.NewFramestore(b.cfg.CameraW, b.cfg.CameraH)
			}
			c.camera.Draw(b.framestore.CameraPort(), c.frame)
			c.si, c.at = 0, capStream
		case capStream:
			if c.si == len(c.streams) {
				c.frame, c.at = c.frame+1, capSleep
				continue
			}
			cs := c.streams[c.si].v
			if !cs.Rate.Take(c.frame) {
				c.si++
				continue
			}
			// Split the rectangle into SegsPerFrame row bands, each a
			// Pandora segment despatched as soon as it is compressed.
			// Each band's framestore read is timed against the camera
			// scan separately — this is why the hardware read blocks,
			// not whole frames (§3.6).
			c.cs, c.rows = cs, cs.Rect.H/cs.SegsPerFrame
			if c.rows == 0 {
				c.rows = cs.Rect.H
			}
			c.nsegs, c.s, c.at = (cs.Rect.H+c.rows-1)/c.rows, 0, capBand
		case capBand:
			cs := c.cs
			if c.s == c.nsegs {
				cs.frameSeq++
				c.si, c.at = c.si+1, capStream
				continue
			}
			y0 := c.s * c.rows
			y1 := min(y0+c.rows, cs.Rect.H)
			c.band = video.Rect{X: cs.Rect.X, Y: cs.Rect.Y + y0, W: cs.Rect.W, H: y1 - y0}
			readTime := time.Duration(c.band.W*c.band.H) * 20 * time.Nanosecond
			c.at = capRead
			if p.SleepUntil(c.scan.SafeReadStart(p.Now(), c.band, readTime)); p.Parked() {
				return
			}
		case capRead:
			band := b.framestore.ReadPort(c.band)
			c.packed = c.codec.CompressBand(c.packed[:0], &band, c.lp)
			// One request for the band's lines: no other process runs on
			// the capture transputer, so per-line requests would be granted
			// back to back anyway.
			c.at = capCharged
			if p.Consume(time.Duration(c.band.H) * (captureSliceCost / video.DefaultSliceLines)); p.Parked() {
				return
			}
		case capCharged:
			cs := c.cs
			c.seg.Reset(
				cs.segSeq, p.Now(),
				cs.frameSeq, uint32(c.nsegs), uint32(c.s),
				uint32(cs.Rect.X), uint32(c.band.Y),
				uint32(cs.Rect.W), uint32(c.band.Y-cs.Rect.Y), uint32(c.band.H),
				c.packed)
			c.seg.Compression = segment.CompressionDPCM
			c.seg.Args = c.args[:]
			c.seg.Length = uint32(c.seg.WireSize())
			cs.segSeq++
			// Encode once at the source (§3.4); the wire moves by
			// reference from here to the display's copy-out.
			c.msg = wireMsg{Stream: cs.Stream, W: b.wires.Encode(&c.seg)}
			c.at = capSent
			if b.captureToServer.Occupy(p, c.msg.W.Len()); p.Parked() {
				return
			}
		case capSent:
			c.at = capTaken
			if b.captureToServer.Rendezvous(p, c.msg); p.Parked() {
				return
			}
		case capTaken:
			c.msg, c.s, c.at = wireMsg{}, c.s+1, capBand
		}
	}
}

// command applies the capture command just received.
func (c *capture) command() {
	switch cmd := &c.cmd; {
	case cmd.Start != nil:
		cs := *cmd.Start
		if cs.SegsPerFrame <= 0 {
			cs.SegsPerFrame = 2
		}
		if c.captureWork == nil {
			c.captureWork = newCaptureWork(c.b)
		}
		// A restart of an open stream keeps its numbering.
		open := c.streams.ref(cs.Stream)
		if *open == nil {
			*open = new(camStream)
		}
		(*open).CameraStream = cs
	case cmd.HasStop && c.captureWork != nil:
		c.streams.del(cmd.Stop)
	}
}

// errOffDisplay marks a segment whose rectangle does not lie within the
// receiving display.
var errOffDisplay = errors.New("box: video segment outside the display")

// display decompresses arriving video segments straight into their
// stream's assembling frame, and copies each completed frame to the
// display at a scan-safe moment.
//
// What decoding and assembling takes is behind *displayWork, built at
// the first segment the board is sent.
type display struct {
	b       *Box
	at      int // dispRecv … dispShown
	scan    video.Scan
	msg     wireMsg
	corrupt reportGate

	*displayWork // nil until the first segment arrives
}

// displayWork is the display board's state for assembling streams.
type displayWork struct {
	assemblers byStream[*video.Assembler]
	seg        segment.Video // the header, decoded in place from msg's wire
	codec      video.Codec   // per-board scratch, reused every segment
}

const (
	dispRecv    = iota // wait for the next segment
	dispGot            // a segment has arrived
	dispCharged        // its CPU is spent: decode and assemble it
	dispTop            // the top half of a whole frame is copied out
	dispShown          // so is the bottom half: the frame is on the display
)

func newDisplay(b *Box) *display {
	return &display{
		b:    b,
		scan: video.Scan{Lines: b.cfg.CameraH, Period: video.FramePeriod},
	}
}

func (d *display) Step(p *occam.Proc) {
	b := d.b
	for {
		switch d.at {
		case dispRecv:
			d.at = dispGot
			if b.serverToMixer.RecvInto(p, &d.msg); p.Parked() {
				return
			}
		case dispGot:
			if b.boardDown(p, boardDisplay) {
				d.msg.W.Release()
				d.at = dispRecv
				continue
			}
			b.displayStat.Segments++
			d.at = dispCharged
			if p.Consume(displaySegmentCost); p.Parked() {
				return
			}
		case dispCharged:
			d.at = dispRecv
			if !d.assemble(p) {
				continue
			}
			// Whole frame ready: copy to the display buffer in two halves,
			// each at a scan-safe time ("care being taken to avoid the
			// scan of the display controller... copying frames both in
			// front of and behind the scan if necessary").
			top := video.Rect{Y: 0, H: b.cfg.CameraH / 2, W: b.cfg.CameraW}
			d.at = dispTop
			if p.SleepUntil(d.scan.SafeReadStart(p.Now(), top, d.copyTime())); p.Parked() {
				return
			}
		case dispTop:
			half := b.cfg.CameraH / 2
			bottom := video.Rect{Y: half, H: b.cfg.CameraH - half, W: b.cfg.CameraW}
			d.at = dispShown
			if p.SleepUntil(d.scan.SafeReadStart(p.Now(), bottom, d.copyTime())); p.Parked() {
				return
			}
		case dispShown:
			b.displayStat.Frames++
			b.displayStat.FrameLat.Observe(p.Now().Sub(segment.TimestampTime(d.seg.Timestamp)))
			d.at = dispRecv
		}
	}
}

// copyTime is how long copying half a frame to the display takes.
func (d *display) copyTime() time.Duration {
	return time.Duration(d.b.cfg.CameraW*(d.b.cfg.CameraH/2)) * 10 * time.Nanosecond
}

// assemble decodes the segment in hand into its stream's frame,
// releasing its wire, and reports whether that completed the frame.
func (d *display) assemble(p *occam.Proc) bool {
	if d.displayWork == nil {
		d.displayWork = new(displayWork)
	}
	b, msg, seg := d.b, d.msg, &d.seg
	d.msg = wireMsg{}
	defer msg.W.Release() // the assembler decodes into its own frame
	// Decode the header in place; seg.Data aliases the wire until the
	// Release.
	err := msg.W.DecodeVideoInto(seg)
	if err == nil && (uint64(seg.XOffset)+uint64(seg.Width) > uint64(b.cfg.CameraW) ||
		uint64(seg.YOffset)+uint64(seg.NumLines) > uint64(b.cfg.CameraH)) {
		err = errOffDisplay
	}
	var frame *video.Frame
	if err == nil {
		a := d.assemblers.ref(msg.Stream)
		if *a == nil {
			*a = video.NewAssembler(b.cfg.CameraW, b.cfg.CameraH)
		}
		frame, err = (*a).Add(seg, &d.codec)
	}
	if err != nil {
		// "The current segment is thrown away" (§3.8); a short line
		// is counted without a report.
		b.displayStat.DecodeErrs++
		if !errors.Is(err, video.ErrLineTooShort) {
			b.report(p, &d.corrupt, obs.EvDrop, "display", msg.Stream, "stream %d: corrupt segment discarded", msg.Stream)
		}
		return false
	}
	return frame != nil
}

// Package medusa implements the paper's future-work system (§5.2):
// "One approach explodes Pandora by having the camera, microphone,
// speaker and display as independent units linked only by the LAN."
//
// Each peripheral is a self-contained unit with its own network
// connection — no box, no server transputer. The Pandora principles
// carry over unchanged, exactly as the paper predicts ("the
// principles employed in Pandora will still be applicable"): segments
// keep their format, the speaker unit runs the same per-stream
// clawback buffers and mixing code, and streams adapt locally with no
// central coordination. The paper reports that upgrading boxes to
// faster links needed no retuning (principle 8); the tests verify the
// same units work across very different link speeds.
package medusa

import (
	"time"

	"repro/internal/atm"
	"repro/internal/mixer"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/video"
	"repro/internal/workload"
)

// MicUnit is a microphone directly on the network: it digitises,
// batches 2 ms blocks into Pandora segments and transmits them on its
// circuits. Several destinations receive independent copies
// (principle 5 holds in the network, not the unit).
type MicUnit struct {
	host   *atm.Host
	source workload.AudioSource
	vcis   []uint32
	ctl    *occam.Chan[micCtl]
	pool   *segment.WirePool
	segs   uint64
}

type micCtl struct {
	vcis      []uint32
	blocksPer int
}

// NewMicUnit creates a microphone unit named name on net.
func NewMicUnit(rt *occam.Runtime, net *atm.Network, name string, source workload.AudioSource) *MicUnit {
	m := &MicUnit{
		host:   net.AddHost(name),
		source: source,
		ctl:    occam.NewChan[micCtl](rt, name+".ctl"),
		pool:   segment.NewWirePool(),
	}
	rt.Go(name+".mic", nil, occam.High, m.run)
	return m
}

// Host returns the unit's network endpoint.
func (m *MicUnit) Host() *atm.Host { return m.host }

// Segments returns how many segments have been transmitted.
func (m *MicUnit) Segments() uint64 { return m.segs }

// Start begins transmission on the given VCIs (circuits must exist).
func (m *MicUnit) Start(p *occam.Proc, vcis ...uint32) {
	m.ctl.Send(p, micCtl{vcis: vcis, blocksPer: segment.DefaultBlocksPerSegment})
}

// Stop ends transmission.
func (m *MicUnit) Stop(p *occam.Proc) { m.ctl.Send(p, micCtl{}) }

func (m *MicUnit) run(p *occam.Proc) {
	filler, _ := m.source.(workload.BlockFiller)
	var (
		adata   []byte // accumulated samples of the segment being built
		nblocks int
		aseg    segment.Audio
		stamp   occam.Time
		seq     uint32
		perSeg  = segment.DefaultBlocksPerSegment
	)
	for n := int64(0); ; n++ {
		p.SleepUntil(occam.Time(n * int64(segment.BlockDuration)))
		for {
			var c micCtl
			if p.Alt(occam.Recv(m.ctl, &c), occam.Skip()) == 1 {
				break
			}
			m.vcis = c.vcis
			if c.blocksPer > 0 {
				perSeg = c.blocksPer
			}
			seq, nblocks = 0, 0
		}
		if len(m.vcis) == 0 {
			continue
		}
		if nblocks == 0 {
			stamp = p.Now() - occam.Time(segment.BlockDuration)
			adata = adata[:0]
		}
		if filler != nil {
			if cap(adata) < len(adata)+segment.BlockSamples {
				adata = append(adata, make([]byte, segment.BlockSamples)...)
			} else {
				adata = adata[:len(adata)+segment.BlockSamples]
			}
			filler.FillBlock(adata[len(adata)-segment.BlockSamples:])
		} else {
			adata = append(adata, m.source.NextBlock()...)
		}
		nblocks++
		if nblocks >= perSeg {
			// Encode once; every destination circuit shares the wire
			// under its own reference.
			w := m.pool.Encode(aseg.Reset(seq, stamp, adata))
			seq++
			nblocks = 0
			w.Retain(len(m.vcis) - 1)
			for _, vci := range m.vcis {
				if m.host.Send(p, atm.Message{VCI: vci, Size: w.Len(), W: w}) != nil {
					w.Release() // no circuit took the reference
				}
			}
			m.segs++
		}
	}
}

// SpeakerUnit is a loudspeaker directly on the network: arriving
// streams run through the same destination machinery as a box —
// per-stream clawback buffers, automatic stream lifecycle, mixing
// every 2 ms (principle 8: it adapts to whatever arrives, with no
// knowledge of the sources).
type SpeakerUnit struct {
	host *atm.Host
	mix  *mixer.Mixer
	lat  map[uint32]*obs.Histogram
}

// NewSpeakerUnit creates a speaker unit named name on net.
func NewSpeakerUnit(rt *occam.Runtime, net *atm.Network, name string) *SpeakerUnit {
	s := &SpeakerUnit{
		host: net.AddHost(name),
		mix:  mixer.New(mixer.Config{}),
		lat:  make(map[uint32]*obs.Histogram),
	}
	s.mix.OnPlayout = func(stream uint32, stamp, now int64) {
		if stamp <= 0 {
			return
		}
		t, ok := s.lat[stream]
		if !ok {
			t = obs.NewHistogram(nil)
			s.lat[stream] = t
		}
		t.Observe(time.Duration(now-stamp) + segment.BlockDuration)
	}
	rt.Go(name+".rx", nil, occam.High, s.runRx)
	rt.Go(name+".tick", nil, occam.Low, s.runTick)
	return s
}

// Host returns the unit's network endpoint.
func (s *SpeakerUnit) Host() *atm.Host { return s.host }

// Mixer exposes the destination mixer for statistics.
func (s *SpeakerUnit) Mixer() *mixer.Mixer { return s.mix }

// Latency returns the playout latency distribution of a stream.
func (s *SpeakerUnit) Latency(vci uint32) *obs.Histogram {
	t, ok := s.lat[vci]
	if !ok {
		t = obs.NewHistogram(nil)
	}
	return t
}

func (s *SpeakerUnit) runRx(p *occam.Proc) {
	for {
		msg := s.host.Rx.Recv(p)
		if !msg.W.IsZero() && (msg.W.Type() == segment.TypeAudio || msg.W.Type() == segment.TypeTest) {
			s.mix.Deliver(msg.VCI, msg.W) // Deliver consumes the reference
		} else {
			msg.W.Release()
		}
	}
}

func (s *SpeakerUnit) runTick(p *occam.Proc) {
	for n := int64(1); ; n++ {
		p.SleepUntil(occam.Time(n * int64(segment.BlockDuration)))
		s.mix.Tick(int64(p.Now()))
	}
}

// CameraUnit is a camera directly on the network, producing DPCM
// compressed video segments at a fractional frame rate.
type CameraUnit struct {
	host   *atm.Host
	camera *workload.Camera
	w, h   int
	rate   video.Rate
	vcis   []uint32
	ctl    *occam.Chan[[]uint32]
	pool   *segment.WirePool
	frames uint64
}

// NewCameraUnit creates a camera unit named name on net.
func NewCameraUnit(rt *occam.Runtime, net *atm.Network, name string, w, h int, rate video.Rate) *CameraUnit {
	c := &CameraUnit{
		host:   net.AddHost(name),
		camera: workload.NewCamera(w, h),
		w:      w,
		h:      h,
		rate:   rate,
		ctl:    occam.NewChan[[]uint32](rt, name+".ctl"),
		pool:   segment.NewWirePool(),
	}
	rt.Go(name+".camera", nil, occam.High, c.run)
	return c
}

// Host returns the unit's network endpoint.
func (c *CameraUnit) Host() *atm.Host { return c.host }

// Frames returns how many frames have been transmitted.
func (c *CameraUnit) Frames() uint64 { return c.frames }

// Start begins transmission on the given VCIs.
func (c *CameraUnit) Start(p *occam.Proc, vcis ...uint32) { c.ctl.Send(p, vcis) }

func (c *CameraUnit) run(p *occam.Proc) {
	lp := video.LineParams{Shift: 1}
	var seq, frameNo uint32
	var codec video.Codec
	// Segment scratch, copied on by Encode: the packed lines and the
	// header around them.
	var (
		data []byte
		seg  segment.Video
	)
	for frame := 0; ; frame++ {
		p.SleepUntil(occam.Time(int64(frame) * int64(video.FramePeriod)))
		for {
			var vcis []uint32
			if p.Alt(occam.Recv(c.ctl, &vcis), occam.Skip()) == 1 {
				break
			}
			c.vcis = vcis
		}
		if len(c.vcis) == 0 || !c.rate.Take(frame) {
			continue
		}
		img := c.camera.NextFrame()
		// One segment per half frame, despatched as soon as ready.
		half := c.h / 2
		for s := 0; s < 2; s++ {
			band := video.Frame{W: c.w, H: half, Pix: img.Pix[s*half*c.w : (s+1)*half*c.w]}
			data = codec.CompressBand(data[:0], &band, lp)
			seg.Reset(seq, p.Now(), frameNo, 2, uint32(s),
				0, uint32(s*half), uint32(c.w), uint32(s*half), uint32(half), data)
			seq++
			w := c.pool.Encode(&seg)
			w.Retain(len(c.vcis) - 1)
			for _, vci := range c.vcis {
				if c.host.Send(p, atm.Message{VCI: vci, Size: w.Len(), W: w}) != nil {
					w.Release() // no circuit took the reference
				}
			}
		}
		frameNo++
		c.frames++
	}
}

// DisplayUnit is a display directly on the network: it decompresses
// arriving video segments (with the per-stream line cache) and
// assembles whole frames before display, exactly as the mixer board
// does (§3.6) — "the overall architecture is very similar in terms of
// data description and buffering" (§5.2).
type DisplayUnit struct {
	host       *atm.Host
	interp     *video.Interpolator
	assemblers map[uint32]*video.Assembler
	w, h       int
	Frames     uint64
	DecodeErrs uint64
	FrameLat   *obs.Histogram

	// Per-unit decode scratch: the line codec and the segment image
	// (blitted into the assembler's own frame by Add).
	codec   video.Codec
	scratch video.Frame
}

// NewDisplayUnit creates a display unit named name on net.
func NewDisplayUnit(rt *occam.Runtime, net *atm.Network, name string, w, h int) *DisplayUnit {
	d := &DisplayUnit{
		host:       net.AddHost(name),
		interp:     video.NewInterpolator(),
		assemblers: make(map[uint32]*video.Assembler),
		w:          w,
		h:          h,
		FrameLat:   obs.NewHistogram(nil),
	}
	rt.Go(name+".display", nil, occam.High, d.run)
	return d
}

// Host returns the unit's network endpoint.
func (d *DisplayUnit) Host() *atm.Host { return d.host }

func (d *DisplayUnit) run(p *occam.Proc) {
	var seg segment.Video // reused header view into each wire
	for {
		msg := d.host.Rx.Recv(p)
		if msg.W.IsZero() || msg.W.Type() != segment.TypeVideo {
			msg.W.Release()
			continue
		}
		if err := msg.W.DecodeVideoInto(&seg); err != nil {
			d.DecodeErrs++
			msg.W.Release()
			continue
		}
		img, ok := d.decode(msg.VCI, &seg)
		if !ok {
			d.DecodeErrs++
			msg.W.Release()
			continue
		}
		a, ok := d.assemblers[msg.VCI]
		if !ok {
			a = video.NewAssembler(d.w, d.h)
			d.assemblers[msg.VCI] = a
		}
		frame := a.Add(&seg, img)
		msg.W.Release() // img and the assembler hold their own copies
		if frame != nil {
			d.Frames++
			d.FrameLat.Observe(p.Now().Sub(segment.TimestampTime(seg.Timestamp)))
		}
	}
}

func (d *DisplayUnit) decode(stream uint32, seg *segment.Video) (*video.Frame, bool) {
	d.interp.Begin(stream)
	img := &d.scratch
	img.Reuse(int(seg.Width), int(seg.NumLines))
	n, err := d.codec.DecompressBand(img, seg.Data)
	if n > 0 {
		d.interp.Advance(stream, img.Row(n-1))
	}
	return img, err == nil
}

package video

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/occam"
	"repro/internal/segment"
)

// Set writes the pixel at (x, y).
func (f *Frame) Set(x, y int, v byte) { f.Pix[y*f.W+x] = v }

// Equal reports whether two frames hold identical pixels.
func (f *Frame) Equal(g *Frame) bool { return f.W == g.W && f.H == g.H && bytes.Equal(f.Pix, g.Pix) }

// SubImage copies rectangle r out of the frame.
func (f *Frame) SubImage(r Rect) *Frame {
	out, v := NewFrame(r.W, r.H), f.View(r)
	out.Blit(&v, 0, 0)
	return out
}

// Blit copies src into the frame with its top-left corner at (x, y).
func (f *Frame) Blit(src *Frame, x, y int) {
	dst := f.View(Rect{X: x, Y: y, W: src.W, H: src.H})
	for row := range src.H {
		copy(dst.Row(row), src.Row(row))
	}
}

// Collides reports whether the raster enters rows [r.Y, r.Y+r.H)
// during [t, t+d) — the tear SafeReadStart must avoid, walked line by
// line as the reference.
func (s Scan) Collides(t occam.Time, r Rect, d time.Duration) bool {
	perLine := int64(s.Period) / int64(s.Lines)
	for at := int64(t); at < int64(t.Add(d)); at += perLine {
		if l := s.LineAt(occam.Time(at)); l >= r.Y && l < r.Y+r.H {
			return true
		}
	}
	return false
}

func gradient(w, h, seed int) *Frame {
	f := NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Set(x, y, byte((x+y*2+seed)&0xFF))
		}
	}
	return f
}

func TestFrameBasics(t *testing.T) {
	f := NewFrame(8, 4)
	f.Set(3, 2, 77)
	if f.At(3, 2) != 77 {
		t.Fatal("Set/At broken")
	}
	if len(f.Row(2)) != 8 || f.Row(2)[3] != 77 {
		t.Fatal("Row broken")
	}
	sub := f.SubImage(Rect{X: 2, Y: 2, W: 4, H: 2})
	if sub.At(1, 0) != 77 {
		t.Fatal("SubImage offset wrong")
	}
	g := NewFrame(8, 4)
	g.Blit(sub, 2, 2)
	if g.At(3, 2) != 77 {
		t.Fatal("Blit offset wrong")
	}
	v := f.View(Rect{X: 3, Y: 1, W: 4, H: 2})
	if v.At(0, 1) != 77 || len(v.Row(1)) != 4 || &v.Row(1)[0] != &f.Row(2)[3] {
		t.Fatal("View is not the frame's own rows")
	}
	if e := f.View(Rect{X: 8, Y: 4}); e.H != 0 || len(e.Pix) != 0 {
		t.Fatal("an empty View holds pixels")
	}
	if !f.Equal(f) || f.Equal(NewFrame(8, 4)) {
		t.Fatal("Equal broken")
	}
}

func TestFramestorePorts(t *testing.T) {
	fs := NewFramestore(16, 8)
	src := gradient(16, 8, 0)
	fs.CameraPort().Blit(src, 0, 0)
	r := Rect{X: 4, Y: 2, W: 8, H: 4}
	got := fs.ReadPort(r)
	if !got.SubImage(Rect{W: 8, H: 4}).Equal(src.SubImage(r)) {
		t.Fatal("ReadPort mismatch")
	}
	// A read is a view, not a copy: what the camera draws next shows
	// through it, so the capture board codes a band in the turn that
	// reads it (box.TestCaptureCodesABandInTheTurnThatReadsIt).
	next := gradient(16, 8, 99)
	fs.CameraPort().Blit(next, 0, 0)
	if !got.SubImage(Rect{W: 8, H: 4}).Equal(next.SubImage(r)) {
		t.Fatal("ReadPort copies the camera port")
	}
}

func TestRateFractions(t *testing.T) {
	// "2/5 gives an average of 10 frames per second."
	r := Rate{Num: 2, Den: 5}
	taken := 0
	for n := 0; n < 100; n++ {
		if r.Take(n) {
			taken++
		}
	}
	if taken != 40 {
		t.Fatalf("2/5 took %d of 100 frames, want 40", taken)
	}
	// Full rate takes everything.
	full := Rate{Num: 1, Den: 1}
	for n := 0; n < 10; n++ {
		if !full.Take(n) {
			t.Fatal("1/1 skipped a frame")
		}
	}
	if (Rate{}).Take(3) || (Rate{Num: 3, Den: 2}).Valid() {
		t.Fatal("invalid rates accepted")
	}
}

func TestRateSpreadIsEven(t *testing.T) {
	// Bresenham selection: never two gaps of wildly different length
	// for 1/3 (the gaps are exactly 3).
	r := Rate{Num: 1, Den: 3}
	var last, count int
	for n := 0; n < 99; n++ {
		if r.Take(n) {
			if count > 0 && n-last != 3 {
				t.Fatalf("1/3 gap of %d at frame %d", n-last, n)
			}
			last = n
			count++
		}
	}
	if count != 33 {
		t.Fatalf("1/3 took %d of 99", count)
	}
}

func TestQuickRateTakesExactFraction(t *testing.T) {
	f := func(num, den uint8) bool {
		n := int(num%10) + 1
		d := int(den%10) + 1
		if n > d {
			n, d = d, n
		}
		r := Rate{Num: n, Den: d}
		taken := 0
		for i := 0; i < 10*d; i++ {
			if r.Take(i) {
				taken++
			}
		}
		return taken == 10*n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompressLineRoundTripLossBounded(t *testing.T) {
	line := gradient(64, 1, 5).Row(0)
	for _, lp := range []LineParams{
		{},
		{Shift: 1},
		{Shift: 3},
		{Subsample: true},
		{Subsample: true, Shift: 2},
	} {
		wire, recon := CompressLine(line, lp)
		got, err := new(Codec).DecompressLine(wire, 64)
		if err != nil {
			t.Fatalf("%+v: %v", lp, err)
		}
		// Decoder must match the encoder's reconstruction exactly.
		for i := range got {
			if got[i] != recon[i] {
				t.Fatalf("%+v: decoder diverges from encoder recon at %d", lp, i)
			}
		}
		if len(wire) != CompressedLineSize(64, lp) {
			t.Fatalf("%+v: wire %d bytes, want %d", lp, len(wire), CompressedLineSize(64, lp))
		}
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	lp := LineParams{Shift: 1}
	if CompressedLineSize(64, lp) >= 64 {
		t.Fatal("DPCM line not smaller than raw")
	}
	if s := CompressedLineSize(64, LineParams{Subsample: true}); s >= 36 {
		t.Fatalf("subsampled line %d bytes", s)
	}
}

func TestRawLineExact(t *testing.T) {
	line := gradient(32, 1, 9).Row(0)
	wire, _ := CompressLine(line, LineParams{Raw: true})
	got, err := new(Codec).DecompressLine(wire, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range line {
		if got[i] != line[i] {
			t.Fatal("raw line not exact")
		}
	}
}

func TestDecompressErrors(t *testing.T) {
	if _, err := new(Codec).DecompressLine(nil, 8); err == nil {
		t.Fatal("nil wire accepted")
	}
	if _, err := new(Codec).DecompressLine([]byte{0}, 8); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestDPCMTracksSmoothContent(t *testing.T) {
	// A smooth gradient must survive fine-shift DPCM with small error.
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(100 + i)
	}
	wire, _ := CompressLine(line, LineParams{})
	got, _ := new(Codec).DecompressLine(wire, 64)
	for i := 8; i < len(line); i++ { // allow leading convergence from pred=128
		d := int(got[i]) - int(line[i])
		if d < -8 || d > 8 {
			t.Fatalf("pixel %d error %d", i, d)
		}
	}
}

// decodeBand decodes one band as the display board does, into a frame
// of its own.
func decodeBand(t *testing.T, c *Codec, data []byte, w, h int) *Frame {
	t.Helper()
	img := NewFrame(w, h)
	if _, err := c.DecompressBand(img, data); err != nil {
		t.Fatal(err)
	}
	return img
}

func TestInterleavedDecodeMatchesSequential(t *testing.T) {
	// Decoding two streams' bands interleaved through one codec must
	// give the same pixels as decoding them back to back (§3.6
	// choice 3): a band carries everything its decode needs.
	var enc Codec
	imgA, imgB := gradient(16, 8, 3), gradient(16, 8, 200)
	bandA := enc.CompressBand(nil, imgA, LineParams{})
	bandB := enc.CompressBand(nil, imgB, LineParams{})
	topA := enc.CompressBand(nil, imgA.SubImage(Rect{W: 16, H: DefaultSliceLines}), LineParams{})

	var dec Codec
	seqA := decodeBand(t, &dec, bandA, 16, 8)
	seqB := decodeBand(t, &dec, bandB, 16, 8)

	decodeBand(t, &dec, topA, 16, DefaultSliceLines)
	intB := decodeBand(t, &dec, bandB, 16, 8)
	intA := decodeBand(t, &dec, bandA, 16, 8)
	if !intB.Equal(seqB) || !intA.Equal(seqA) {
		t.Fatal("a stream's decode differs when interleaved")
	}
}

func TestScanSafeReadNeverCollides(t *testing.T) {
	scan := Scan{Lines: 100, Period: 40 * time.Millisecond}
	rect := Rect{Y: 30, H: 20, W: 64, X: 0}
	readTime := 5 * time.Millisecond
	for _, start := range []time.Duration{0, 3 * time.Millisecond, 12 * time.Millisecond, 13 * time.Millisecond, 39 * time.Millisecond} {
		now := occam.Time(start)
		at := scan.SafeReadStart(now, rect, readTime)
		if at < now {
			t.Fatalf("SafeReadStart went backwards: %v < %v", at, now)
		}
		if scan.Collides(at, rect, readTime) {
			t.Fatalf("collision at %v (from %v): scan line %d..", at, now, scan.LineAt(at))
		}
		if at.Sub(now) > 2*scan.Period {
			t.Fatalf("waited %v for a safe window", at.Sub(now))
		}
	}
}

func TestScanCollides(t *testing.T) {
	scan := Scan{Lines: 100, Period: 40 * time.Millisecond}
	rect := Rect{Y: 0, H: 100, W: 1}
	// Reading the whole frame while the scan runs must collide.
	if !scan.Collides(0, rect, 10*time.Millisecond) {
		t.Fatal("full-frame read during scan did not collide")
	}
	small := Rect{Y: 90, H: 5, W: 1}
	// Scan is at line 0 at t=0; a fast read of the bottom is safe.
	if scan.Collides(0, small, time.Millisecond) {
		t.Fatal("bottom read collided with scan at the top")
	}
}

// raw codes piece's rows in raw lines, losslessly, as h's data, and
// returns h.
func raw(h *segment.Video, piece *Frame) *segment.Video {
	h.Data = new(Codec).CompressBand(nil, piece, LineParams{Raw: true})
	return h
}

// add offers h to a and returns the frame it completes, failing the
// test if its lines do not decode.
func add(t *testing.T, a *Assembler, h *segment.Video) *Frame {
	t.Helper()
	img, err := a.Add(h, new(Codec))
	if err != nil {
		t.Fatalf("segment %d of frame %d: %v", h.SegmentNum, h.FrameNumber, err)
	}
	return img
}

func TestAssemblerCompleteFrame(t *testing.T) {
	a := NewAssembler(32, 8)
	full := gradient(32, 8, 7)
	top := full.SubImage(Rect{X: 0, Y: 0, W: 32, H: 4})
	bottom := full.SubImage(Rect{X: 0, Y: 4, W: 32, H: 4})
	h1 := segment.NewVideo(0, 0, 1, 2, 0, 0, 0, 32, 0, 4, nil)
	h2 := segment.NewVideo(1, 0, 1, 2, 1, 0, 4, 32, 4, 4, nil)
	if img := add(t, a, raw(h1, top)); img != nil {
		t.Fatal("partial frame displayed — visible tear")
	}
	if a.InProgress() != true {
		t.Fatal("assembly not in progress")
	}
	img := add(t, a, raw(h2, bottom))
	if img == nil {
		t.Fatal("complete frame not released")
	}
	if !img.Equal(full) {
		t.Fatal("assembled frame wrong")
	}
	if a.stats.Complete != 1 {
		t.Fatalf("stats %+v", a.stats)
	}
}

func TestAssemblerAbandonsOnNewerFrame(t *testing.T) {
	a := NewAssembler(32, 8)
	piece := gradient(32, 4, 0)
	h1 := segment.NewVideo(0, 0, 1, 2, 0, 0, 0, 32, 0, 4, nil)
	add(t, a, raw(h1, piece))
	// Frame 2 arrives before frame 1 completed.
	h2 := segment.NewVideo(2, 0, 2, 2, 0, 0, 0, 32, 0, 4, nil)
	add(t, a, raw(h2, piece))
	if a.stats.Abandoned != 1 {
		t.Fatalf("stats %+v", a.stats)
	}
	// A late segment of old frame 1 is discarded.
	h1b := segment.NewVideo(1, 0, 1, 2, 1, 0, 4, 32, 4, 4, nil)
	if img := add(t, a, raw(h1b, piece)); img != nil {
		t.Fatal("stale segment completed a frame")
	}
	if a.stats.Duplicates != 1 {
		t.Fatalf("stats %+v", a.stats)
	}
}

func TestAssemblerDuplicateSegment(t *testing.T) {
	a := NewAssembler(32, 8)
	piece := gradient(32, 4, 0)
	h := segment.NewVideo(0, 0, 1, 2, 0, 0, 0, 32, 0, 4, nil)
	add(t, a, raw(h, piece))
	if img := add(t, a, raw(h, piece)); img != nil {
		t.Fatal("duplicate completed frame")
	}
	if a.stats.Duplicates != 1 {
		t.Fatal("duplicate not counted")
	}
}

func TestAssemblerAbandonedFrameThenALargerOne(t *testing.T) {
	// Frame 1 comes in two segments and loses one; frame 2 comes in four
	// two-line bands, last first, so its segment numbers run past frame
	// 1's count; frame 3 is one band that leaves the rest of its frame
	// blank, not frame 2's pixels.
	a := NewAssembler(32, 8)
	full := gradient(32, 8, 11)
	add(t, a, raw(segment.NewVideo(0, 0, 1, 2, 0, 0, 0, 32, 0, 4, nil), gradient(32, 4, 99)))
	var img *Frame
	for s := 3; s >= 0; s-- {
		band := full.SubImage(Rect{Y: 2 * s, W: 32, H: 2})
		if img != nil {
			t.Fatalf("frame 2 released before segment %d arrived", s)
		}
		img = add(t, a, raw(segment.NewVideo(uint32(5-s), 0, 2, 4, uint32(s), 0, uint32(2*s), 32, uint32(2*s), 2, nil), band))
	}
	if img == nil || !img.Equal(full) {
		t.Fatal("frame 2 not assembled whole")
	}
	top := full.SubImage(Rect{W: 32, H: 2})
	img = add(t, a, raw(segment.NewVideo(6, 0, 3, 1, 0, 0, 0, 32, 0, 2, nil), top))
	want := NewFrame(32, 8)
	want.Blit(top, 0, 0)
	if img == nil || !img.Equal(want) {
		t.Fatal("frame 3 not its one band on a blank frame")
	}
	if st := a.stats; st != (AssemblyStats{Complete: 2, Abandoned: 1}) {
		t.Fatalf("stats %+v", st)
	}
}

func TestAssemblerReusesItsFrame(t *testing.T) {
	// After the first frame, assembling one allocates nothing: a steady
	// stream of frames gives the collector no work. The two 16-line
	// bands are coded as the boards code them, so they decode through
	// the 16-line kernels, straight into the frame.
	a := NewAssembler(32, 32)
	var c Codec
	full := gradient(32, 32, 5)
	top := c.CompressBand(nil, full.SubImage(Rect{W: 32, H: 16}), LineParams{Shift: 1})
	bottom := c.CompressBand(nil, full.SubImage(Rect{Y: 16, W: 32, H: 16}), LineParams{Shift: 1})
	want := NewFrame(32, 32)
	want.Blit(decodeBand(t, &c, top, 32, 16), 0, 0)
	want.Blit(decodeBand(t, &c, bottom, 32, 16), 0, 16)
	h0 := segment.NewVideo(0, 0, 0, 2, 0, 0, 0, 32, 0, 16, top)
	h1 := segment.NewVideo(1, 0, 0, 2, 1, 0, 16, 32, 16, 16, bottom)
	assemble := func() *Frame {
		h0.FrameNumber++
		h1.FrameNumber++
		a.Add(h0, &c)
		img, _ := a.Add(h1, &c)
		return img
	}
	first := assemble()
	if n := testing.AllocsPerRun(100, func() {
		if assemble() != first {
			t.Fatal("frame not assembled in the first one's storage")
		}
	}); n != 0 {
		t.Fatalf("%v allocations per frame", n)
	}
	if !assemble().Equal(want) {
		t.Fatal("reused frame assembled wrong")
	}
}

func TestSegmentThatFailsToDecodeLeavesTheFrameInProgress(t *testing.T) {
	// Frame 1's top band arrives; then the top band of frame 2, cut
	// short in its last line; then frame 1's bottom band. The cut
	// segment is an error and changes nothing: it neither abandons
	// frame 1 nor writes its decodable lines over frame 1's top band, so
	// frame 1 completes with its own pixels, as it does without it.
	full, next := gradient(32, 8, 7), gradient(32, 8, 150)
	top, bottom := full.SubImage(Rect{W: 32, H: 4}), full.SubImage(Rect{Y: 4, W: 32, H: 4})
	cut := raw(segment.NewVideo(1, 0, 2, 2, 0, 0, 0, 32, 0, 4, nil), next.SubImage(Rect{W: 32, H: 4}))
	cut.Data = cut.Data[:len(cut.Data)-1]
	cut.Data[len(cut.Data)-33]-- // the last line's length, one byte shorter: framed, but short
	assemble := func(withCut bool) (*Frame, AssemblyStats, bool) {
		a := NewAssembler(32, 8)
		add(t, a, raw(segment.NewVideo(0, 0, 1, 2, 0, 0, 0, 32, 0, 4, nil), top))
		if withCut {
			if img, err := a.Add(cut, new(Codec)); img != nil || !errors.Is(err, ErrLineTooShort) {
				t.Fatalf("the cut segment gave %v, %v; want no frame and ErrLineTooShort", img, err)
			}
		}
		inProgress := a.InProgress()
		img := add(t, a, raw(segment.NewVideo(2, 0, 1, 2, 1, 0, 4, 32, 4, 4, nil), bottom))
		return img, a.stats, inProgress
	}
	want, wantStats, _ := assemble(false)
	got, gotStats, inProgress := assemble(true)
	if !inProgress || got == nil || !got.Equal(want) || !got.Equal(full) || gotStats != wantStats {
		t.Fatalf("after the cut segment: in progress %v, frame 1 completed %v with its pixels %v, stats %+v; want true, true, true and %+v",
			inProgress, got != nil, got != nil && got.Equal(full), gotStats, wantStats)
	}
}

func TestRectString(t *testing.T) {
	if (Rect{X: 1, Y: 2, W: 3, H: 4}).String() != "3x4+1+2" {
		t.Fatal("Rect.String broken")
	}
	if (Rate{Num: 2, Den: 5}).String() != "2/5" {
		t.Fatal("Rate.String broken")
	}
}

// Package video implements Pandora's video path (paper §3.3, §3.6):
// a framestore written continuously by the camera and read in
// carefully-timed rectangles; streams at fractional frame rates;
// frames split into rectangular segments and slices pushed through a
// pipelined DPCM/sub-sampling compression engine; a per-stream
// last-line cache for the vertical interpolator; and whole-frame
// assembly at the display so no tear is ever visible.
package video

import "fmt"

// Rect is a rectangle within the camera field, in pixels.
type Rect struct {
	X, Y, W, H int
}

// Contains reports whether the row range [y0, y1) intersects r.
func (r Rect) intersectsRows(y0, y1 int) bool {
	return y0 < r.Y+r.H && y1 > r.Y
}

func (r Rect) String() string {
	return fmt.Sprintf("%dx%d+%d+%d", r.W, r.H, r.X, r.Y)
}

// Frame is an 8-bit greyscale image.
type Frame struct {
	W, H int
	Pix  []byte // row-major, len = W*H
}

// NewFrame returns a zeroed frame.
func NewFrame(w, h int) *Frame {
	return &Frame{W: w, H: h, Pix: make([]byte, w*h)}
}

// At returns the pixel at (x, y).
func (f *Frame) At(x, y int) byte { return f.Pix[y*f.W+x] }

// Set writes the pixel at (x, y).
func (f *Frame) Set(x, y int, v byte) { f.Pix[y*f.W+x] = v }

// Row returns row y (aliasing Pix).
func (f *Frame) Row(y int) []byte { return f.Pix[y*f.W : (y+1)*f.W] }

// Reuse resizes the frame in place, keeping its pixel storage where
// capacity allows. Pixel contents are unspecified afterwards — for
// scratch frames whose every pixel the caller overwrites.
func (f *Frame) Reuse(w, h int) {
	n := w * h
	if cap(f.Pix) < n {
		f.Pix = make([]byte, n)
	}
	f.Pix = f.Pix[:n]
	f.W, f.H = w, h
}

// SubImage copies rectangle r out of the frame.
func (f *Frame) SubImage(r Rect) *Frame {
	out := NewFrame(r.W, r.H)
	f.subImageInto(out, r)
	return out
}

func (f *Frame) subImageInto(out *Frame, r Rect) {
	for y := 0; y < r.H; y++ {
		copy(out.Row(y), f.Pix[(r.Y+y)*f.W+r.X:(r.Y+y)*f.W+r.X+r.W])
	}
}

// Blit copies src into the frame with its top-left corner at (x, y).
func (f *Frame) Blit(src *Frame, x, y int) {
	for row := 0; row < src.H; row++ {
		copy(f.Pix[(y+row)*f.W+x:(y+row)*f.W+x+src.W], src.Row(row))
	}
}

// Equal reports whether two frames hold identical pixels.
func (f *Frame) Equal(g *Frame) bool {
	if f.W != g.W || f.H != g.H {
		return false
	}
	for i := range f.Pix {
		if f.Pix[i] != g.Pix[i] {
			return false
		}
	}
	return true
}

// MeanAbsDiff returns the mean absolute pixel difference between two
// equally sized frames — the distortion measure for the lossy codec.
func (f *Frame) MeanAbsDiff(g *Frame) float64 {
	if f.W != g.W || f.H != g.H {
		panic("video: MeanAbsDiff on mismatched frames")
	}
	var sum int64
	for i := range f.Pix {
		d := int(f.Pix[i]) - int(g.Pix[i])
		if d < 0 {
			d = -d
		}
		sum += int64(d)
	}
	return float64(sum) / float64(len(f.Pix))
}

// Framestore is the capture board's frame store: the camera writes
// scan lines continuously on one port while capture streams read
// rectangles on the other (§3.6). CameraPort and ReadRect model the
// two ports; tear-safe timing is the caller's job, via Scan.
type Framestore struct {
	frame *Frame
}

// NewFramestore returns a store of the given dimensions.
func NewFramestore(w, h int) *Framestore {
	return &Framestore{frame: NewFrame(w, h)}
}

// Width and Height return the store dimensions.
func (fs *Framestore) Width() int  { return fs.frame.W }
func (fs *Framestore) Height() int { return fs.frame.H }

// CameraPort returns the store's own frame, which the camera draws
// into in place (the camera port).
func (fs *Framestore) CameraPort() *Frame { return fs.frame }

// ReadRect copies rectangle r out of the store (the capture port).
func (fs *Framestore) ReadRect(r Rect) *Frame {
	return fs.frame.SubImage(r)
}

// ReadRectInto is ReadRect into a reused scratch frame — the capture
// board's read path, which reads a band per segment and never keeps
// it.
func (fs *Framestore) ReadRectInto(dst *Frame, r Rect) {
	dst.Reuse(r.W, r.H)
	fs.frame.subImageInto(dst, r)
}

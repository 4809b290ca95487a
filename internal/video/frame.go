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

// Framestore is the capture board's frame store: the camera writes
// scan lines continuously on one port while capture streams read
// rectangles on the other (§3.6). CameraPort and ReadRectInto model
// the two ports; tear-safe timing is the caller's job, via Scan.
type Framestore struct {
	frame *Frame
}

// NewFramestore returns a store of the given dimensions.
func NewFramestore(w, h int) *Framestore {
	return &Framestore{frame: NewFrame(w, h)}
}

// CameraPort returns the store's own frame, which the camera draws
// into in place (the camera port).
func (fs *Framestore) CameraPort() *Frame { return fs.frame }

// ReadRectInto copies rectangle r out of the store into a reused
// scratch frame (the capture port) — the capture board's read path,
// which reads a band per segment and never keeps it.
func (fs *Framestore) ReadRectInto(dst *Frame, r Rect) {
	dst.Reuse(r.W, r.H)
	fs.frame.subImageInto(dst, r)
}

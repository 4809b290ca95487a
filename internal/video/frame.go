// Package video implements Pandora's video path (paper §3.3, §3.6):
// a framestore written continuously by the camera and read in
// carefully-timed rectangles; streams at fractional frame rates;
// frames split into rectangular segments and slices pushed through a
// pipelined DPCM/sub-sampling compression engine; and whole-frame
// assembly at the display so no tear is ever visible. A band is coded
// where it lies: compressed from the framestore's rows and decoded
// into the assembling frame's (Frame.View).
package video

import "fmt"

// Rect is a rectangle within the camera field, in pixels.
type Rect struct {
	X, Y, W, H int
}

func (r Rect) String() string {
	return fmt.Sprintf("%dx%d+%d+%d", r.W, r.H, r.X, r.Y)
}

// Frame is an 8-bit greyscale image: row y is the W pixels from
// Pix[y*Stride], and a Stride of 0 stands for W. A view of another
// frame (View) shares its Pix and its Stride.
type Frame struct {
	W, H   int
	Stride int
	Pix    []byte
}

// NewFrame returns a zeroed frame.
func NewFrame(w, h int) *Frame {
	return &Frame{W: w, H: h, Stride: w, Pix: make([]byte, w*h)}
}

// stride is the distance in Pix from one row to the next.
func (f *Frame) stride() int {
	if f.Stride == 0 {
		return f.W
	}
	return f.Stride
}

// At returns the pixel at (x, y).
func (f *Frame) At(x, y int) byte { return f.Pix[y*f.stride()+x] }

// Row returns row y (aliasing Pix).
func (f *Frame) Row(y int) []byte { return f.Pix[y*f.stride():][:f.W] }

// View returns rectangle r of the frame, which must lie within it, as a
// frame whose rows are the frame's own: writing a view writes the frame.
func (f *Frame) View(r Rect) Frame {
	s := f.stride()
	if r.H <= 0 {
		return Frame{W: r.W, Stride: s}
	}
	return Frame{W: r.W, H: r.H, Stride: s, Pix: f.Pix[r.Y*s+r.X:][:(r.H-1)*s+r.W]}
}

// Framestore is the capture board's frame store: the camera writes
// scan lines continuously on one port while capture streams read
// rectangles on the other (§3.6). CameraPort and ReadPort model the
// two ports; tear-safe timing is the caller's job, via Scan.
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

// ReadPort returns rectangle r of the store as a view (the capture
// port). Nothing is copied: the capture board compresses the band
// within the turn that reads it, before the camera draws again.
func (fs *Framestore) ReadPort(r Rect) Frame { return fs.frame.View(r) }

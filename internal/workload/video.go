package workload

import "repro/internal/video"

// Camera generates deterministic synthetic camera frames: a smooth
// gradient with a bright moving block, enough structure to exercise
// the DPCM codec, sub-sampling and tear detection.
type Camera struct {
	w, h int
}

// NewCamera returns a camera of the given dimensions.
func NewCamera(w, h int) *Camera { return &Camera{w: w, h: h} }

// Draw draws frame number n over every pixel of f, which must be the
// camera's size: FrameAt for a caller with its own storage, such as a
// framestore the camera writes straight into. Frames nobody draws cost
// nothing.
func (c *Camera) Draw(f *video.Frame, n int) { c.render(f, n) }

// FrameAt produces frame number n deterministically.
func (c *Camera) FrameAt(n int) *video.Frame {
	f := video.NewFrame(c.w, c.h)
	c.render(f, n)
	return f
}

// render draws frame number n over every pixel of f: pixel (x, y) is
// x*2+y+n*3 (mod 256), under a bright block.
func (c *Camera) render(f *video.Frame, n int) {
	for y := 0; y < c.h; y++ {
		v := byte(y + n*3)
		row := f.Row(y)
		for x := range row {
			row[x] = v
			v += 2
		}
	}
	// A bright block moving one pixel per frame — motion parallel to
	// segment boundaries, the §3.6 tear-revealing case.
	bs := c.w / 8
	bx := (n * 1) % (c.w - bs)
	by := c.h / 3
	for y := by; y < by+bs && y < c.h; y++ {
		block := f.Row(y)[bx : bx+bs]
		for x := range block {
			block[x] = 250
		}
	}
}

package video

import (
	"errors"
	"slices"
)

// The packed-line form of a video segment's Data: every line of the
// band as a 2-byte big-endian length, then the line's header byte and
// body (CompressedLineSize bytes). The capture boards write it with
// CompressBand and the display boards read it with DecompressBand; no
// other code knows the layout.
//
// DPCM prediction restarts at 128 on every line, so the lines of a
// slice (DefaultSliceLines, four) are independent dependency chains.
// The band kernels code a slice's four lines in one pass with their
// chains interleaved, which lets the CPU overlap them; a line coded
// alone is one long serial chain. Raw and sub-sampled lines, which the
// boards do not send, go through the per-line reference code.

// DefaultSliceLines is the slice height (§3.6: "several slices of a
// few lines each"): the lines the band kernels code in one pass, and
// the unit the capture board is charged per.
const DefaultSliceLines = 4

// errFraming reports packed lines whose lengths run past the data, or
// whose count is not the band's height.
var errFraming = errors.New("video: packed lines misframed")

// CompressBand appends every row of img to dst in the packed-line form
// and returns the extended slice. The bytes are those of
// Codec.CompressLine on each row, each behind its length.
func (c *Codec) CompressBand(dst []byte, img *Frame, lp LineParams) []byte {
	size := CompressedLineSize(img.W, lp)
	if lp.Raw || lp.Subsample {
		for y := 0; y < img.H; y++ {
			dst = c.appendLine(append(dst, byte(size>>8), byte(size)), img.Row(y), lp)
		}
		return dst
	}
	start := len(dst)
	stride := 2 + size
	dst = slices.Grow(dst, img.H*stride)[:start+img.H*stride]
	c.pad = growBytes(c.pad, img.W)
	hdr := lp.headerByte()
	var src, out [DefaultSliceLines][]byte
	for y0 := 0; y0 < img.H; y0 += DefaultSliceLines {
		for k := range src {
			if y := y0 + k; y < img.H {
				line := dst[start+y*stride : start+(y+1)*stride]
				line[0], line[1], line[2] = byte(size>>8), byte(size), hdr
				src[k], out[k] = img.Row(y), line[3:]
			} else {
				src[k], out[k] = src[0], c.pad // a scratch lane
			}
		}
		dpcm4(&out, &src, lp.Shift)
	}
	return dst
}

// DecompressBand decodes packed lines (CompressBand's form) into img's
// rows, one line per row; img must already be the band's size. It
// returns how many rows it decoded. Lengths that run past data, or a
// line count other than img.H, are a framing error, found before any
// row is decoded (n == 0). ErrLineTooShort means line n's body is too
// short for img.W; rows 0 to n-1 are decoded.
func (c *Codec) DecompressBand(img *Frame, data []byte) (int, error) {
	c.lines = c.lines[:0]
	for len(data) > 0 {
		if len(data) < 2 {
			return 0, errFraming
		}
		n := int(data[0])<<8 | int(data[1])
		data = data[2:]
		if len(data) < n {
			return 0, errFraming
		}
		c.lines = append(c.lines, data[:n])
		data = data[n:]
	}
	if len(c.lines) != img.H {
		return 0, errFraming
	}
	rows := len(c.lines)
	for y, wire := range c.lines {
		if len(wire) < 1 || len(wire) < CompressedLineSize(img.W, paramsFromHeader(wire[0])) {
			rows = y
			break
		}
	}
	c.pad = growBytes(c.pad, img.W)
	var (
		src, out [DefaultSliceLines][]byte
		shift    [DefaultSliceLines]uint8
		k        int
	)
	for y, wire := range c.lines[:rows] {
		lp := paramsFromHeader(wire[0])
		if lp.Raw || lp.Subsample {
			line, _ := c.DecompressLine(wire, img.W) // its size was checked above
			copy(img.Row(y), line)
			continue
		}
		src[k], out[k], shift[k] = wire[1:], img.Row(y), lp.Shift
		if k++; k == DefaultSliceLines {
			undpcm4(&out, &src, &shift)
			k = 0
		}
	}
	if k > 0 {
		for ; k < DefaultSliceLines; k++ {
			src[k], out[k] = src[0], c.pad // a scratch lane
		}
		undpcm4(&out, &src, &shift)
	}
	if rows < len(c.lines) {
		return rows, ErrLineTooShort
	}
	return rows, nil
}

// quantise is one DPCM step: px's 4-bit delta from pred at shift, and
// the decoder's reconstruction, the next prediction.
func quantise(px byte, pred int, shift uint8) (byte, int) {
	q := min(max((int(px)-pred)>>shift, -8), 7)
	return byte(q) & 0x0F, min(max(pred+q<<shift, 0), 255)
}

// dpcm4 writes the DPCM bodies of four equal-length lines, src[k] into
// out[k] ((len+1)/2 bytes), two nibbles a byte, high nibble first. The
// four prediction chains are independent and run interleaved.
func dpcm4(out, src *[DefaultSliceLines][]byte, shift uint8) {
	shift &= 0x03 // as compressTo; it also spares each shift a range check
	n := len(src[0])
	s0, s1, s2, s3 := src[0][:n], src[1][:n], src[2][:n], src[3][:n]
	m := (n + 1) / 2
	d0, d1, d2, d3 := out[0][:m], out[1][:m], out[2][:m], out[3][:m]
	p0, p1, p2, p3 := 128, 128, 128, 128
	var h0, h1, h2, h3, l0, l1, l2, l3 byte
	for i := 1; i < n; i += 2 {
		h0, p0 = quantise(s0[i-1], p0, shift)
		h1, p1 = quantise(s1[i-1], p1, shift)
		h2, p2 = quantise(s2[i-1], p2, shift)
		h3, p3 = quantise(s3[i-1], p3, shift)
		l0, p0 = quantise(s0[i], p0, shift)
		l1, p1 = quantise(s1[i], p1, shift)
		l2, p2 = quantise(s2[i], p2, shift)
		l3, p3 = quantise(s3[i], p3, shift)
		j := i / 2
		d0[j], d1[j], d2[j], d3[j] = h0<<4|l0, h1<<4|l1, h2<<4|l2, h3<<4|l3
	}
	if n%2 == 1 {
		h0, _ = quantise(s0[n-1], p0, shift)
		h1, _ = quantise(s1[n-1], p1, shift)
		h2, _ = quantise(s2[n-1], p2, shift)
		h3, _ = quantise(s3[n-1], p3, shift)
		d0[m-1], d1[m-1], d2[m-1], d3[m-1] = h0<<4, h1<<4, h2<<4, h3<<4
	}
}

// reconstruct is one DPCM decoding step: pred plus the delta q at
// shift, clamped to a pixel.
func reconstruct(pred, q int, shift uint8) int {
	return min(max(pred+q<<shift, 0), 255)
}

// undpcm4 decodes four DPCM bodies, src[k] into the len(out[0]) pixels
// of out[k] at shift[k]. The four reconstruction chains run
// interleaved.
func undpcm4(out, src *[DefaultSliceLines][]byte, shift *[DefaultSliceLines]uint8) {
	n := len(out[0])
	m := (n + 1) / 2
	s0, s1, s2, s3 := src[0][:m], src[1][:m], src[2][:m], src[3][:m]
	d0, d1, d2, d3 := out[0][:n], out[1][:n], out[2][:n], out[3][:n]
	// A header's two bits of shift; the mask spares each shift a range
	// check.
	sh0, sh1, sh2, sh3 := shift[0]&0x03, shift[1]&0x03, shift[2]&0x03, shift[3]&0x03
	p0, p1, p2, p3 := 128, 128, 128, 128
	for i := 1; i < n; i += 2 {
		j := i / 2
		b0, b1, b2, b3 := int8(s0[j]), int8(s1[j]), int8(s2[j]), int8(s3[j])
		p0 = reconstruct(p0, int(b0>>4), sh0)
		p1 = reconstruct(p1, int(b1>>4), sh1)
		p2 = reconstruct(p2, int(b2>>4), sh2)
		p3 = reconstruct(p3, int(b3>>4), sh3)
		d0[i-1], d1[i-1], d2[i-1], d3[i-1] = byte(p0), byte(p1), byte(p2), byte(p3)
		p0 = reconstruct(p0, int(b0<<4>>4), sh0)
		p1 = reconstruct(p1, int(b1<<4>>4), sh1)
		p2 = reconstruct(p2, int(b2<<4>>4), sh2)
		p3 = reconstruct(p3, int(b3<<4>>4), sh3)
		d0[i], d1[i], d2[i], d3[i] = byte(p0), byte(p1), byte(p2), byte(p3)
	}
	if n%2 == 1 {
		d0[n-1] = byte(reconstruct(p0, int(int8(s0[m-1])>>4), sh0))
		d1[n-1] = byte(reconstruct(p1, int(int8(s1[m-1])>>4), sh1))
		d2[n-1] = byte(reconstruct(p2, int(int8(s2[m-1])>>4), sh2))
		d3[n-1] = byte(reconstruct(p3, int(int8(s3[m-1])>>4), sh3))
	}
}

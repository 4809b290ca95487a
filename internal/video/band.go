package video

import (
	"errors"
	"math/bits"
	"slices"
)

// The packed-line form of a video segment's Data: every line of the
// band as a 2-byte big-endian length, then the line's header byte and
// body (CompressedLineSize bytes). The capture boards write it with
// CompressBand and the display boards read it with frameBand and
// decodeBand (Assembler.Add); no other code knows the layout.
//
// The band kernels code a band's DPCM lines in one pass over its rows:
// the encoder finds them at a fixed stride in both the frame (its row
// stride: a band is a view) and the packed lines, the decoder at one too
// once its framing pass has seen every line at one DPCM header's exact
// size (any other band goes line by line). They keep the per-line
// reference's bytes and pixels without its clamps. DPCM prediction
// restarts at 128 on every line and moves in steps of q<<shift, so it
// stays a multiple of 1<<shift, and then the reconstruction
// pred + q<<shift never leaves [0, 255] (TestDPCMStepClampsOnlyBelow).
//
// Every line is so an independent chain of bytes, and 16 lines are the
// 16 byte lanes of a vector: dpcm16 and undpcm16 code 16 lines a call,
// one pixel of each per column step. On amd64 they are SSE2 assembly
// (band_amd64.s), which every amd64 CPU has; they take widths that are
// a multiple of 32. Other widths, other GOARCHes and a band's last
// lines short of 16 go through the portable kernels: dpcmLines, where
// an encoder step is a subtraction, a table load and an add, four
// lines' chains interleaved so the CPU overlaps them, and undpcm, an
// add per pixel with an OR of every prediction. Either decoder names
// the lines whose predictions left [0, 255] — only a corrupt body does
// that — and decodeBand decodes those again with DecompressLine,
// which saturates. Raw and sub-sampled lines, which the boards do not
// send, go through the per-line reference code.

// DefaultSliceLines is the slice height (§3.6: "several slices of a
// few lines each"), the unit the capture board is charged per.
const DefaultSliceLines = 4

// errFraming reports packed lines whose lengths run past the data, or
// whose count is not the band's height.
var errFraming = errors.New("video: packed lines misframed")

// quantTab is one shift's DPCM quantiser, indexed by a pixel's
// difference d from its prediction as d&511 (d is in [-255, 255]). For
// q, d>>shift clamped to [-8, 7], step holds q<<shift + 64 and nib the
// 4-bit code q&15.
type quantTab struct{ step, nib [512]byte }

// pairTab is one shift's decoder of a body byte b: hi[b] is the move
// of its high nibble plus 64, both[b] the move of both nibbles plus
// 128.
type pairTab struct{ hi, both [256]byte }

var (
	quantTabs [4]quantTab
	pairTabs  [4]pairTab
)

func init() {
	for s := range quantTabs {
		for d := -255; d <= 255; d++ {
			q := min(max(d>>s, -8), 7)
			quantTabs[s].step[d&511], quantTabs[s].nib[d&511] = byte(q<<s+64), byte(q&15)
		}
		for b := range 256 {
			hi, lo := int(int8(b))>>4<<s, int(int8(b<<4))>>4<<s
			pairTabs[s].hi[b], pairTabs[s].both[b] = byte(hi+64), byte(hi+lo+128)
		}
	}
}

// CompressBand appends every row of img, which may be a view, to dst in
// the packed-line form and returns the extended slice. The bytes are
// those of Codec.CompressLine on each row, each behind its length.
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
	hdr := lp.headerByte()
	for y := 0; y < img.H; y++ {
		line := dst[start+y*stride:]
		line[0], line[1], line[2] = byte(size>>8), byte(size), hdr
	}
	body, ps, shift := dst[start+3:], img.stride(), lp.Shift&3
	y := 0
	for ; y+16 <= img.H; y += 16 {
		dpcm16(body[y*stride:], stride, img.Pix[y*ps:], ps, img.W, shift)
	}
	if y < img.H {
		dpcmRows(body[y*stride:], stride, img.Pix[y*ps:], ps, img.W, img.H-y, shift)
	}
	return dst
}

// decodeBand decodes the first rows packed lines of data (CompressBand's
// form) into img's rows, one line per row; img, which may be a view,
// must be the band's size, and rows and even are frameBand's verdict on
// data for it.
func (c *Codec) decodeBand(img *Frame, data []byte, rows int, even bool) {
	ps, y := img.stride(), 0
	if even {
		first, _ := nextLine(data)
		if lp := paramsFromHeader(first[0]); !lp.Raw && !lp.Subsample && len(first) == CompressedLineSize(img.W, lp) {
			// One DPCM header and its exact size on every line: the
			// bodies sit at one stride, 16 lines to a kernel call.
			stride := 2 + len(first)
			for ; y+16 <= rows; y += 16 {
				for redo := undpcm16(img.Pix[y*ps:], ps, img.W, data[y*stride+3:], stride, lp.Shift); redo != 0; redo &= redo - 1 {
					r := y + bits.TrailingZeros(redo)
					c.redoLine(img.Row(r), data[r*stride+2:(r+1)*stride])
				}
			}
			data = data[y*stride:]
		}
	}
	for ; y < rows; y++ {
		wire, _ := nextLine(data)
		data = data[2+len(wire):]
		lp, row := paramsFromHeader(wire[0]), img.Row(y)
		if lp.Raw || lp.Subsample || undpcm(row, wire[1:], &pairTabs[lp.Shift])>>8 != 0 {
			c.redoLine(row, wire)
		}
	}
}

// frameBand is a band's framing pass over h lines of w pixels, which
// finds every error before decodeBand writes a row: it returns the
// lines whole for the width and whether each has the first one's length
// and header. Lengths that run past data, or a line count other than h,
// are errFraming, with no row whole; ErrLineTooShort means the line
// after the first rows is too short for w.
func frameBand(w, h int, data []byte) (rows int, even bool, err error) {
	lines, rows := 0, -1
	var first []byte
	even = len(data) > 0
	for rest := data; len(rest) > 0; lines++ {
		wire, ok := nextLine(rest)
		if !ok {
			return 0, false, errFraming
		}
		if rows < 0 && (len(wire) < 1 || len(wire) < CompressedLineSize(w, paramsFromHeader(wire[0]))) {
			rows = lines
		}
		if lines == 0 {
			first = wire
		}
		even = even && rows < 0 && len(wire) == len(first) && wire[0] == first[0]
		rest = rest[2+len(wire):]
	}
	if lines != h {
		return 0, false, errFraming
	}
	if rows >= 0 {
		return rows, false, ErrLineTooShort
	}
	return lines, even, nil
}

// redoLine decodes wire into row with DecompressLine, which saturates;
// wire's size was checked by frameBand.
func (c *Codec) redoLine(row, wire []byte) {
	line, _ := c.DecompressLine(wire, len(row))
	copy(row, line)
}

// nextLine returns the first packed line of data, without its length,
// or false when that length runs past data.
func nextLine(data []byte) ([]byte, bool) {
	if len(data) < 2 {
		return nil, false
	}
	n := int(data[0])<<8 | int(data[1])
	if len(data)-2 < n {
		return nil, false
	}
	return data[2 : 2+n], true
}

// dpcmRows writes the DPCM bodies of h lines of w pixels, line r of
// src, at r*ps, into (w+1)/2 bytes of out at r*stride, with dpcmLines
// four lines at a time.
func dpcmRows(out []byte, stride int, src []byte, ps, w, h int, shift uint8) {
	for y0 := 0; y0 < h; y0 += 4 {
		// Lanes past the last line code it again, to the same bytes.
		y := [4]int{y0, min(y0+1, h-1), min(y0+2, h-1), min(y0+3, h-1)}
		dpcmLines(out, stride, src, ps, w, &y, &quantTabs[shift&3])
	}
}

// undpcmRows decodes the 16 DPCM bodies of in, line r's at r*stride,
// into 16 rows of w pixels in dst, row r at r*ps, with undpcm. It
// returns a mask with bit r set when line r's predictions left
// [0, 255]: that row must be decoded again by DecompressLine.
func undpcmRows(dst []byte, ps, w int, in []byte, stride int, shift uint8) uint {
	var redo uint
	for r := range 16 {
		if undpcm(dst[r*ps:][:w], in[r*stride:], &pairTabs[shift&3])>>8 != 0 {
			redo |= 1 << r
		}
	}
	return redo
}

// dpcmLines writes the DPCM bodies of four lines of w pixels: line
// y[k] of src, at y[k]*ps, into (w+1)/2 bytes of out at y[k]*stride,
// two nibbles a byte, high nibble first. The four prediction chains
// are independent and run interleaved.
func dpcmLines(out []byte, stride int, src []byte, ps, w int, y *[4]int, t *quantTab) {
	m := (w + 1) / 2
	s0, s1, s2, s3 := src[y[0]*ps:][:w], src[y[1]*ps:][:w], src[y[2]*ps:][:w], src[y[3]*ps:][:w]
	d0, d1, d2, d3 := out[y[0]*stride:][:m], out[y[1]*stride:][:m], out[y[2]*stride:][:m], out[y[3]*stride:][:m]
	p0, p1, p2, p3 := 128, 128, 128, 128
	for i := 1; i < w; i += 2 {
		a0, a1, a2, a3 := (int(s0[i-1])-p0)&511, (int(s1[i-1])-p1)&511, (int(s2[i-1])-p2)&511, (int(s3[i-1])-p3)&511
		p0, p1, p2, p3 = p0+int(t.step[a0])-64, p1+int(t.step[a1])-64, p2+int(t.step[a2])-64, p3+int(t.step[a3])-64
		b0, b1, b2, b3 := (int(s0[i])-p0)&511, (int(s1[i])-p1)&511, (int(s2[i])-p2)&511, (int(s3[i])-p3)&511
		p0, p1, p2, p3 = p0+int(t.step[b0])-64, p1+int(t.step[b1])-64, p2+int(t.step[b2])-64, p3+int(t.step[b3])-64
		j := i >> 1
		d0[j], d1[j], d2[j], d3[j] = t.nib[a0]<<4|t.nib[b0], t.nib[a1]<<4|t.nib[b1], t.nib[a2]<<4|t.nib[b2], t.nib[a3]<<4|t.nib[b3]
	}
	if w%2 == 1 {
		d0[m-1], d1[m-1] = t.nib[(int(s0[w-1])-p0)&511]<<4, t.nib[(int(s1[w-1])-p1)&511]<<4
		d2[m-1], d3[m-1] = t.nib[(int(s2[w-1])-p2)&511]<<4, t.nib[(int(s3[w-1])-p3)&511]<<4
	}
}

// undpcm decodes a DPCM body into the len(o) pixels of o with the
// shift's pairTab and no clamp, and returns the OR of every
// prediction: it has a bit above the low eight when one left [0, 255].
func undpcm(o, body []byte, t *pairTab) int {
	p, acc := 128, 0
	for i := 1; i < len(o); i += 2 {
		b := body[i>>1]
		a := p + int(t.hi[b]) - 64
		p += int(t.both[b]) - 128
		o[i-1], o[i] = byte(a), byte(p)
		acc |= a | p
	}
	if n := len(o); n%2 == 1 {
		p += int(t.hi[body[n/2]]) - 64
		o[n-1] = byte(p)
		acc |= p
	}
	return acc
}

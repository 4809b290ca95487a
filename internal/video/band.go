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
// The band kernels code a band's DPCM lines in one pass over its rows:
// the encoder finds them at a fixed stride in both the frame and the
// packed lines, the decoder by their lengths. They keep the per-line
// reference's bytes and pixels without its clamps. DPCM prediction
// restarts at 128 on every line and moves in steps of q<<shift, so it
// stays a multiple of 1<<shift, and then the reconstruction
// pred + q<<shift never leaves [0, 255] (TestDPCMStepClampsOnlyBelow). An
// encoder step is a subtraction, a table load and an add; the encoder
// codes four lines at a time, their independent chains interleaved so
// the CPU overlaps them. The decoder is an add per pixel with an OR of
// every prediction: a line whose predictions left [0, 255] — only a
// corrupt body does that — is decoded again by DecompressLine, which
// saturates. Raw and sub-sampled lines, which the boards do not send,
// go through the per-line reference code.

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
	hdr := lp.headerByte()
	for y := 0; y < img.H; y++ {
		line := dst[start+y*stride:]
		line[0], line[1], line[2] = byte(size>>8), byte(size), hdr
	}
	for y0 := 0; y0 < img.H; y0 += 4 {
		// Lanes past the last line code it again, to the same bytes.
		y := [4]int{y0, min(y0+1, img.H-1), min(y0+2, img.H-1), min(y0+3, img.H-1)}
		dpcmLines(dst[start+3:], stride, img.Pix, img.W, &y, &quantTabs[lp.Shift&3])
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
	lines, rows := 0, -1
	for rest := data; len(rest) > 0; lines++ {
		wire, ok := nextLine(rest)
		if !ok {
			return 0, errFraming
		}
		if rows < 0 && (len(wire) < 1 || len(wire) < CompressedLineSize(img.W, paramsFromHeader(wire[0]))) {
			rows = lines
		}
		rest = rest[2+len(wire):]
	}
	if lines != img.H {
		return 0, errFraming
	}
	if rows < 0 {
		rows = lines
	}
	for y := 0; y < rows; y++ {
		wire, _ := nextLine(data)
		data = data[2+len(wire):]
		lp, row := paramsFromHeader(wire[0]), img.Row(y)
		if lp.Raw || lp.Subsample || undpcm(row, wire[1:], &pairTabs[lp.Shift])>>8 != 0 {
			line, _ := c.DecompressLine(wire, img.W) // its size was checked above
			copy(row, line)
		}
	}
	if rows < lines {
		return rows, ErrLineTooShort
	}
	return rows, nil
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

// dpcmLines writes the DPCM bodies of four lines of w pixels: line
// y[k] of src, at y[k]*w, into (w+1)/2 bytes of out at y[k]*stride,
// two nibbles a byte, high nibble first. The four prediction chains
// are independent and run interleaved.
func dpcmLines(out []byte, stride int, src []byte, w int, y *[4]int, t *quantTab) {
	m := (w + 1) / 2
	s0, s1, s2, s3 := src[y[0]*w:][:w], src[y[1]*w:][:w], src[y[2]*w:][:w], src[y[3]*w:][:w]
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

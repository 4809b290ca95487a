package video

import (
	"errors"
	"fmt"
)

// The compression engine of §3.6: "Each line of video data has a one
// byte compression header added, which is used by the compression
// hardware to determine what sub-sampling and DPCM coding should be
// applied." The scheme here packs 4-bit quantised DPCM deltas, two
// pixels per byte, with optional 2:1 horizontal sub-sampling —
// parameters ride in the per-line header exactly as on the hardware,
// so "compression schemes and parameters can be changed from one
// segment to the next".

// LineParams is the one-byte compression header of one video line.
type LineParams struct {
	// Subsample selects 2:1 horizontal sub-sampling.
	Subsample bool
	// Shift is the DPCM quantiser shift (0 = finest, 3 = coarsest); the
	// header carries its low two bits, and the coder uses only those.
	Shift uint8
	// Raw disables DPCM: the line is carried verbatim (used for the
	// dummy flush lines, which must not disturb decoder state).
	Raw bool
}

// headerByte encodes the params.
func (lp LineParams) headerByte() byte {
	b := lp.Shift & 0x03
	if lp.Subsample {
		b |= 0x04
	}
	if lp.Raw {
		b |= 0x08
	}
	return b
}

func paramsFromHeader(b byte) LineParams {
	return LineParams{
		Shift:     b & 0x03,
		Subsample: b&0x04 != 0,
		Raw:       b&0x08 != 0,
	}
}

// CompressLine encodes one line of pixels with the given parameters,
// returning header byte + packed deltas. The reconstruction the
// decoder will produce is also returned, since DPCM prediction must
// run against reconstructed values at both ends.
//
// CompressLine allocates fresh slices on every call. It and the Codec's
// per-line methods are the reference the band kernels (band.go), which
// the capture and display boards use, are checked against.
func CompressLine(line []byte, lp LineParams) (wire []byte, recon []byte) {
	src := line
	if lp.Subsample {
		src = subsampleInto(nil, line)
	}
	reconSub := make([]byte, len(src))
	wire = compressTo(make([]byte, 0, 1+len(src)), reconSub, src, lp)
	return wire, expandInto(nil, reconSub, lp.Subsample, len(line))
}

// subsampleInto writes line's 2:1 horizontal sub-sampling over dst's
// storage (grown as needed) and returns it.
func subsampleInto(dst, line []byte) []byte {
	n := (len(line) + 1) / 2
	dst = growBytes(dst, n)
	for i := 0; i < n; i++ {
		dst[i] = line[2*i]
	}
	return dst
}

// compressTo appends src's header byte + packed deltas to wire and
// writes the decoder's reconstruction of src into recon (len(src)
// bytes, pre-sized by the caller).
func compressTo(wire, recon, src []byte, lp LineParams) []byte {
	wire = append(wire, lp.headerByte())
	if lp.Raw {
		copy(recon, src)
		return append(wire, src...)
	}
	pred := 128
	shift := lp.Shift & 0x03 // the header's two bits, all the decoder sees
	var hi byte
	for i, px := range src {
		delta := int(px) - pred
		q := delta >> shift
		if q > 7 {
			q = 7
		}
		if q < -8 {
			q = -8
		}
		nib := byte(q & 0x0F)
		if i%2 == 0 {
			hi = nib << 4
			if i == len(src)-1 {
				wire = append(wire, hi)
			}
		} else {
			wire = append(wire, hi|nib)
		}
		pred += q << shift
		if pred > 255 {
			pred = 255
		}
		if pred < 0 {
			pred = 0
		}
		recon[i] = byte(pred)
	}
	return wire
}

// growBytes returns b resized to n bytes, reusing its storage where
// capacity allows. Contents are unspecified.
func growBytes(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// expandInto undoes horizontal sub-sampling by linear interpolation,
// writing over out's storage (grown as needed).
func expandInto(out, sub []byte, subsampled bool, width int) []byte {
	if !subsampled {
		out = growBytes(out, len(sub))
		copy(out, sub)
		return out
	}
	out = growBytes(out, width)
	for i := 0; i < width; i++ {
		j := i / 2
		if i%2 == 0 || j+1 >= len(sub) {
			out[i] = sub[j]
		} else {
			out[i] = byte((int(sub[j]) + int(sub[j+1])) / 2)
		}
	}
	return out
}

// Decompression errors.
var (
	ErrLineTooShort = errors.New("video: compressed line truncated")
)

// Codec holds the reusable line buffers of one compression or
// decompression pipeline — the per-line scratch the hardware would
// keep in registers. Not safe for concurrent use; one Codec per
// process.
//
// Ownership: CompressLine results stay valid until the Reset that
// recycles them (each call hands out a distinct buffer, so a whole
// frame of lines can be held at once, e.g. until packing).
// DecompressLine results are valid only until the next call — callers
// copy out immediately. The band methods write into the caller's
// storage and keep nothing.
type Codec struct {
	sub   []byte   // sub-sampling scratch
	recon []byte   // reconstruction scratch (compress)
	line  []byte   // decompressed line (decompress)
	wires [][]byte // compressed-line buffers handed out since Reset
	n     int
}

// Reset recycles every buffer handed out by CompressLine since the
// last Reset. Call once per frame/segment, after the compressed lines
// have been packed or sent.
func (c *Codec) Reset() { c.n = 0 }

// CompressLine is CompressLine with reused storage, for callers that
// do not need the reconstruction. The returned wire is valid until
// Reset.
func (c *Codec) CompressLine(line []byte, lp LineParams) []byte {
	if c.n == len(c.wires) {
		c.wires = append(c.wires, nil)
	}
	w := c.appendLine(c.wires[c.n][:0], line, lp)
	c.wires[c.n] = w
	c.n++
	return w
}

// appendLine appends line's header byte and body to dst, with the
// Codec's sub-sampling and reconstruction scratch.
func (c *Codec) appendLine(dst, line []byte, lp LineParams) []byte {
	src := line
	if lp.Subsample {
		c.sub = subsampleInto(c.sub, line)
		src = c.sub
	}
	c.recon = growBytes(c.recon, len(src))
	return compressTo(dst, c.recon, src, lp)
}

// DecompressLine decodes one compressed line back to width pixels.
// The returned line is valid until the next call.
func (c *Codec) DecompressLine(wire []byte, width int) ([]byte, error) {
	if len(wire) < 1 {
		return nil, ErrLineTooShort
	}
	lp := paramsFromHeader(wire[0])
	body := wire[1:]
	subWidth := width
	if lp.Subsample {
		subWidth = (width + 1) / 2
	}
	if lp.Raw {
		if len(body) < subWidth {
			return nil, ErrLineTooShort
		}
		c.line = expandInto(c.line, body[:subWidth], lp.Subsample, width)
		return c.line, nil
	}
	if len(body) < (subWidth+1)/2 {
		return nil, ErrLineTooShort
	}
	c.sub = growBytes(c.sub, subWidth)
	sub := c.sub
	pred := 128
	for i := 0; i < subWidth; i++ {
		nib := body[i/2]
		if i%2 == 0 {
			nib >>= 4
		}
		q := int(int8(nib<<4) >> 4) // sign-extend the 4-bit delta
		pred += q << lp.Shift
		if pred > 255 {
			pred = 255
		}
		if pred < 0 {
			pred = 0
		}
		sub[i] = byte(pred)
	}
	c.line = expandInto(c.line, sub, lp.Subsample, width)
	return c.line, nil
}

// CompressedLineSize returns the wire size of one line.
func CompressedLineSize(width int, lp LineParams) int {
	sub := width
	if lp.Subsample {
		sub = (width + 1) / 2
	}
	if lp.Raw {
		return 1 + sub
	}
	return 1 + (sub+1)/2
}

// Interpolator is the decompression hardware's vertical interpolator
// plus the software last-line cache of §3.6: "Maintain a software
// cache of the last line processed on each stream, and reload the
// interpolation hardware whenever we interleave segments."
//
// The hardware holds the last line of exactly one stream; decoding a
// segment from a different stream requires reloading from the cache.
// Reloads are counted so experiments can show the cost of
// interleaving. The zero Interpolator is ready to use.
type Interpolator struct {
	cache      map[uint32][]byte // per-stream last line; nil until the first Advance
	loaded     uint32            // stream whose line is in "hardware"
	hasLoaded  bool
	reloads    uint64
	interleave uint64
}

// NewInterpolator returns an interpolator with an empty cache.
func NewInterpolator() *Interpolator {
	return new(Interpolator)
}

// Reloads returns how many cache→hardware reloads interleaving has
// forced.
func (ip *Interpolator) Reloads() uint64 { return ip.reloads }

// Begin prepares to decode a segment of the given stream, reloading
// the hardware from the software cache when the stream changes.
// It returns the previous line to interpolate against (nil at the
// top of a stream or after a discontinuity).
func (ip *Interpolator) Begin(stream uint32) []byte {
	if !ip.hasLoaded || ip.loaded != stream {
		if ip.hasLoaded {
			ip.interleave++
		}
		ip.loaded = stream
		ip.hasLoaded = true
		if prev, ok := ip.cache[stream]; ok {
			ip.reloads++
			return prev
		}
		return nil
	}
	return ip.cache[stream]
}

// Advance records that line is now the last processed line of the
// loaded stream.
func (ip *Interpolator) Advance(stream uint32, line []byte) {
	if !ip.hasLoaded || ip.loaded != stream {
		panic(fmt.Sprintf("video: Advance for stream %d without Begin", stream))
	}
	if ip.cache == nil {
		ip.cache = make(map[uint32][]byte)
	}
	ip.cache[stream] = append(ip.cache[stream][:0], line...)
}

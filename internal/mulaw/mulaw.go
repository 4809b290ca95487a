// Package mulaw implements the 8-bit µ-law audio codec used by the
// Pandora audio board (paper §3.2: "Audio is sampled by a standard
// 8-bit µ-law codec at 125µs intervals") and the scaling lookup
// tables used by the muting function (§4.3: "The muting is performed
// by lookup tables that directly scale the 8-bit µ-law samples").
//
// The encoding is G.711 µ-law: a 14-bit linear sample is compressed
// to sign + 3-bit exponent + 4-bit mantissa, bit-inverted on the wire.
package mulaw

import "math/bits"

// Bias is the µ-law encoding bias (G.711).
const Bias = 0x84

// clip is the largest linear magnitude representable after biasing.
const clip = 32635

// Silence is the µ-law code for a zero-amplitude sample.
const Silence = 0xFF

// decodeTable maps every µ-law byte to its linear value.
var decodeTable [256]int16

func init() {
	for i := 0; i < 256; i++ {
		decodeTable[i] = decode(byte(i))
	}
}

// Encode compresses a 16-bit linear PCM sample to one µ-law byte.
func Encode(sample int16) byte {
	s := int32(sample)
	sign := byte(0)
	if s < 0 {
		s = -s
		sign = 0x80
	}
	if s > clip {
		s = clip
	}
	s += Bias
	// The exponent is the position of the highest set bit among bits
	// 14..7 of the biased magnitude, counted from bit 7.
	exp := max(bits.Len32(uint32(s))-8, 0)
	mantissa := byte((s >> (uint(exp) + 3)) & 0x0F)
	return ^(sign | byte(exp)<<4 | mantissa)
}

// Decode expands one µ-law byte to a 16-bit linear PCM sample.
func Decode(b byte) int16 { return decodeTable[b] }

func decode(b byte) int16 {
	b = ^b
	sign := b & 0x80
	exp := (b >> 4) & 0x07
	mantissa := b & 0x0F
	s := (int32(mantissa)<<3 + Bias) << exp
	s -= Bias
	if sign != 0 {
		s = -s
	}
	return int16(s)
}

// ScaleTable is a 256-entry lookup table that scales µ-law samples by
// a fixed factor without leaving the µ-law domain — the mechanism the
// audio transputer uses to apply muting "as they are copied from the
// codec fifo to the server link" (§4.3).
type ScaleTable [256]byte

// NewScaleTable builds the lookup table for the given gain factor
// (1.0 = unity, 0.5 and 0.2 are the paper's muting stages).
func NewScaleTable(factor float64) *ScaleTable {
	var t ScaleTable
	for i := 0; i < 256; i++ {
		scaled := float64(decodeTable[i]) * factor
		switch {
		case scaled > 32767:
			scaled = 32767
		case scaled < -32768:
			scaled = -32768
		}
		t[i] = Encode(int16(scaled))
	}
	return &t
}

// Apply scales every sample in buf in place.
func (t *ScaleTable) Apply(buf []byte) {
	for i, b := range buf {
		buf[i] = t[b]
	}
}

// Peak returns the largest linear magnitude in a µ-law buffer, used by
// the muting threshold detector.
func Peak(buf []byte) int32 {
	var peak int32
	for _, b := range buf {
		v := int32(decodeTable[b])
		if v < 0 {
			v = -v
		}
		if v > peak {
			peak = v
		}
	}
	return peak
}

// Energy returns the mean squared linear amplitude of a µ-law buffer,
// a crude loudness measure used by quality metrics.
func Energy(buf []byte) float64 {
	if len(buf) == 0 {
		return 0
	}
	var sum float64
	for _, b := range buf {
		v := float64(decodeTable[b])
		sum += v * v
	}
	return sum / float64(len(buf))
}

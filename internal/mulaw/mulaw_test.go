package mulaw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSilenceCode(t *testing.T) {
	if Encode(0) != Silence {
		t.Fatalf("Encode(0) = %#x, want %#x", Encode(0), Silence)
	}
	if Decode(Silence) != 0 {
		t.Fatalf("Decode(Silence) = %d, want 0", Decode(Silence))
	}
}

func TestKnownValues(t *testing.T) {
	// Reference points of G.711 µ-law.
	cases := []struct {
		linear int16
		code   byte
	}{
		{0, 0xFF},
		{8, 0xFE},
		{-8, 0x7E},
		{32124, 0x80},  // max magnitude positive
		{-32124, 0x00}, // max magnitude negative
	}
	for _, c := range cases {
		if got := Encode(c.linear); got != c.code {
			t.Errorf("Encode(%d) = %#02x, want %#02x", c.linear, got, c.code)
		}
		if got := Decode(c.code); got != c.linear {
			t.Errorf("Decode(%#02x) = %d, want %d", c.code, got, c.linear)
		}
	}
}

// bitScanEncode is G.711 µ-law encoding with the exponent found by
// scanning down from bit 14 for the first set bit — the form Encode had
// before it counted leading zeros.
func bitScanEncode(sample int16) byte {
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
	exp := 7
	for mask := int32(0x4000); exp > 0 && s&mask == 0; exp-- {
		mask >>= 1
	}
	mantissa := byte((s >> (uint(exp) + 3)) & 0x0F)
	return ^(sign | byte(exp)<<4 | mantissa)
}

func TestEncodeMatchesBitScan(t *testing.T) {
	for x := math.MinInt16; x <= math.MaxInt16; x++ {
		if got, want := Encode(int16(x)), bitScanEncode(int16(x)); got != want {
			t.Fatalf("Encode(%d) = %#02x, bit scan gives %#02x", x, got, want)
		}
	}
}

func TestRoundTripMonotone(t *testing.T) {
	// Decode(Encode(x)) must be close to x (µ-law quantisation error
	// is bounded by half the step size, which grows with amplitude).
	for x := -32768; x <= 32767; x += 7 {
		y := int32(Decode(Encode(int16(x))))
		err := math.Abs(float64(y - int32(x)))
		mag := math.Abs(float64(x))
		bound := 4 + mag/16 // generous step-size bound
		if err > bound {
			t.Fatalf("round trip of %d gave %d (err %.0f > bound %.0f)", x, y, err, bound)
		}
	}
}

func TestEncodeIdempotentOnDecoded(t *testing.T) {
	// Every µ-law code must survive decode→encode exactly, except
	// negative zero (0x7F), which canonicalises to positive zero.
	for i := 0; i < 256; i++ {
		b := byte(i)
		got := Encode(Decode(b))
		if b == 0x7F {
			if got != Silence {
				t.Fatalf("negative zero re-encoded to %#02x, want %#02x", got, Silence)
			}
			continue
		}
		if got != b {
			t.Fatalf("Encode(Decode(%#02x)) = %#02x", b, got)
		}
	}
}

func TestQuickSignPreserved(t *testing.T) {
	f := func(x int16) bool {
		y := Decode(Encode(x))
		switch {
		case x > 3:
			return y > 0
		case x < -3:
			return y < 0
		default:
			return true // tiny values may round to zero
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMonotoneNonDecreasing(t *testing.T) {
	f := func(a, b int16) bool {
		if a > b {
			a, b = b, a
		}
		return Decode(Encode(a)) <= Decode(Encode(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleTableUnity(t *testing.T) {
	unity := NewScaleTable(1.0)
	for i := 0; i < 256; i++ {
		if byte(i) == 0x7F {
			continue // negative zero canonicalises to 0xFF
		}
		if unity[i] != byte(i) {
			t.Fatalf("unity table changes %#02x to %#02x", i, unity[i])
		}
	}
}

func TestScaleTableHalves(t *testing.T) {
	half := NewScaleTable(0.5)
	for _, x := range []int16{1000, 4000, -2000, 16000} {
		in := Encode(x)
		out := Decode(half[in])
		want := float64(Decode(in)) / 2
		if math.Abs(float64(out)-want) > math.Abs(want)/8+8 {
			t.Fatalf("half-scale of %d gave %d, want ~%.0f", Decode(in), out, want)
		}
	}
}

func TestScaleTableApply(t *testing.T) {
	mute := NewScaleTable(0.2)
	buf := []byte{Encode(10000), Encode(-10000)}
	mute.Apply(buf)
	if v := Decode(buf[0]); v < 1500 || v > 2500 {
		t.Fatalf("0.2 scale of 10000 gave %d", v)
	}
	if v := Decode(buf[1]); v > -1500 || v < -2500 {
		t.Fatalf("0.2 scale of -10000 gave %d", v)
	}
}

func TestScaleTableZeroSilences(t *testing.T) {
	zero := NewScaleTable(0)
	for i := 0; i < 256; i++ {
		if Decode(zero[i]) != 0 {
			t.Fatalf("zero table leaves %#02x audible", i)
		}
	}
}

func TestPeak(t *testing.T) {
	buf := []byte{Encode(100), Encode(-8000), Encode(300)}
	p := Peak(buf)
	want := Decode(Encode(-8000))
	if p != -int32(want) {
		t.Fatalf("Peak = %d, want %d", p, -want)
	}
	if Peak(nil) != 0 {
		t.Fatal("Peak(nil) != 0")
	}
}

func TestEnergy(t *testing.T) {
	silent := []byte{Silence, Silence}
	if Energy(silent) != 0 {
		t.Fatal("silence has energy")
	}
	loud := []byte{Encode(20000), Encode(-20000)}
	if Energy(loud) <= Energy([]byte{Encode(100), Encode(-100)}) {
		t.Fatal("louder signal has less energy")
	}
	if Energy(nil) != 0 {
		t.Fatal("Energy(nil) != 0")
	}
}

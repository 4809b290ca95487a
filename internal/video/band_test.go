package video

import (
	"bytes"
	"errors"
	"testing"
)

// packRef is the packed-line form built line by line from the reference
// coder: CompressLine's output behind a 2-byte big-endian length.
func packRef(dst []byte, wires ...[]byte) []byte {
	for _, w := range wires {
		dst = append(dst, byte(len(w)>>8), byte(len(w)))
		dst = append(dst, w...)
	}
	return dst
}

// Error classes of a packed band, as the display board tells them apart.
const (
	decodedWhole = iota
	badFraming   // lengths past the data or the wrong line count: "corrupt"
	shortLine    // a well-framed line too short for the width
)

// refDecode decodes a packed band the way the display boards did before
// the band kernels: split every line out, check the count, then
// DecompressLine each. It returns the rows decoded before any error.
func refDecode(data []byte, width, height int) ([][]byte, int) {
	var wires [][]byte
	for len(data) > 0 {
		if len(data) < 2 {
			return nil, badFraming
		}
		n := int(data[0])<<8 | int(data[1])
		if len(data) < 2+n {
			return nil, badFraming
		}
		wires, data = append(wires, data[2:2+n]), data[2+n:]
	}
	if len(wires) != height {
		return nil, badFraming
	}
	var rows [][]byte
	for _, w := range wires {
		line, err := new(Codec).DecompressLine(w, width)
		if err != nil {
			return rows, shortLine
		}
		rows = append(rows, line)
	}
	return rows, decodedWhole
}

// checkDecompressBand decodes data with DecompressBand and wants
// refDecode's rows and error class.
func checkDecompressBand(t *testing.T, c *Codec, data []byte, width, height int, what string) {
	t.Helper()
	want, class := refDecode(data, width, height)
	img := NewFrame(width, height)
	n, err := c.DecompressBand(img, data)
	var got int
	switch {
	case err == nil:
		got = decodedWhole
	case errors.Is(err, ErrLineTooShort):
		got = shortLine
	default:
		got = badFraming
	}
	if got != class || n != len(want) {
		t.Fatalf("%s: DecompressBand decoded %d rows, class %d (%v); the per-line reference %d rows, class %d",
			what, n, got, err, len(want), class)
	}
	for y, row := range want {
		if !bytes.Equal(img.Row(y), row) {
			t.Fatalf("%s: row %d is %v, the per-line reference %v", what, y, img.Row(y), row)
		}
	}
}

// FuzzBandCodec checks the four-line band kernels against the per-line
// reference: CompressBand's bytes against CompressLine's packed with
// lengths, DecompressBand's rows and error class against DecompressLine
// on bands with one header, with a header per line (raw and sub-sampled
// among them), and with their framing cut short, overrun or padded.
func FuzzBandCodec(f *testing.F) {
	f.Add(uint16(128), uint8(32), uint8(1), uint8(0), []byte("camera"))
	f.Add(uint16(7), uint8(5), uint8(3), uint8(0xa7), bytes.Repeat([]byte{0}, 40))
	f.Add(uint16(1), uint8(1), uint8(0), uint8(0x31), []byte{255})
	f.Add(uint16(299), uint8(39), uint8(2), uint8(0xfe), append(bytes.Repeat([]byte{0}, 33), bytes.Repeat([]byte{255}, 31)...))
	f.Add(uint16(33), uint8(6), uint8(0), uint8(0x0c), []byte{0, 255, 0, 255, 128, 7})
	f.Fuzz(func(t *testing.T, w uint16, h, shift, flags uint8, pix []byte) {
		width, height := 1+int(w)%300, 1+int(h)%40
		img := NewFrame(width, height)
		for i := range img.Pix {
			if len(pix) > 0 {
				img.Pix[i] = pix[i%len(pix)]
			}
		}
		var c Codec

		// One header for the band: every way the boards could call it.
		lp := LineParams{Shift: shift % 4, Subsample: flags&1 != 0, Raw: flags&2 != 0}
		prefix := []byte{0xee}
		want := prefix
		for y := 0; y < height; y++ {
			wire, _ := CompressLine(img.Row(y), lp)
			want = packRef(want, wire)
		}
		got := c.CompressBand(append([]byte(nil), prefix...), img, lp)
		if !bytes.Equal(got, want) {
			t.Fatalf("%dx%d %+v: CompressBand differs from the per-line reference", width, height, lp)
		}
		packed := got[len(prefix):]
		checkDecompressBand(t, &c, packed, width, height, "one header")

		// A header per line, from the pixels, so one band mixes shifts
		// with raw and sub-sampled lines.
		var mixed []byte
		for y := 0; y < height; y++ {
			b := img.Pix[y*width] ^ byte(y)
			wire, _ := CompressLine(img.Row(y), LineParams{Shift: b & 3, Subsample: b&4 != 0, Raw: b&8 != 0})
			mixed = packRef(mixed, wire)
		}
		checkDecompressBand(t, &c, mixed, width, height, "mixed headers")

		// Damage: cut anywhere, a trailing byte, one line too many or too
		// few, and one line's body a byte short with its framing intact.
		cut := int(flags) * len(mixed) / 255
		checkDecompressBand(t, &c, mixed[:cut], width, height, "cut")
		checkDecompressBand(t, &c, append(mixed[:len(mixed):len(mixed)], 0), width, height, "trailing byte")
		checkDecompressBand(t, &c, mixed, width, height+1, "a line too few")
		checkDecompressBand(t, &c, mixed, width, height-1, "a line too many")
		var short []byte
		r := int(flags) % height
		for y := 0; y < height; y++ {
			wire, _ := CompressLine(img.Row(y), lp)
			if y == r {
				wire = wire[:len(wire)-1]
			}
			short = packRef(short, wire)
		}
		checkDecompressBand(t, &c, short, width, height, "short line")
	})
}

func TestDecompressBandErrorClasses(t *testing.T) {
	img := gradient(16, 3, 4)
	lp := LineParams{Shift: 1}
	var wires [][]byte
	for y := 0; y < 3; y++ {
		w, _ := CompressLine(img.Row(y), lp)
		wires = append(wires, w)
	}
	good := packRef(nil, wires...)
	for _, c := range []struct {
		name  string
		data  []byte
		lines int
		rows  int
		short bool
	}{
		{name: "whole", data: good, lines: 3, rows: 3},
		{name: "no data", data: nil, lines: 3},
		{name: "length past the data", data: good[:len(good)-1], lines: 3},
		{name: "half a length", data: append(good[:len(good):len(good)], 0), lines: 3},
		{name: "a line short of NumLines", data: good, lines: 4},
		{name: "a line over NumLines", data: good, lines: 2},
		{name: "line 2 body short", data: packRef(nil, wires[0], wires[1], wires[2][:5]), lines: 3, rows: 2, short: true},
		{name: "line 0 header only", data: packRef(nil, wires[0][:1], wires[1], wires[2]), lines: 3, short: true},
	} {
		var codec Codec
		n, err := codec.DecompressBand(NewFrame(16, c.lines), c.data)
		if n != c.rows || (err == nil) != (c.rows == c.lines) || errors.Is(err, ErrLineTooShort) != c.short {
			t.Errorf("%s: DecompressBand = %d rows, %v; want %d rows, short line %v", c.name, n, err, c.rows, c.short)
		}
	}
}

// cameraBand is h rows of workload.Camera's first picture (without its
// bright block), the rows the capture board codes on videowall.
func cameraBand(w, h int) *Frame {
	f := NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Set(x, y, byte(x*2+y))
		}
	}
	return f
}

// The per-line reference and the band kernels on a 128-pixel camera
// row; the band benchmarks code one slice (four lines) per op and also
// report ns/line.

func BenchmarkCompressLine(b *testing.B) {
	row, lp := cameraBand(128, 1).Row(0), LineParams{Shift: 1}
	var c Codec
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.CompressLine(row, lp)
	}
}

func BenchmarkDecompressLine(b *testing.B) {
	wire, _ := CompressLine(cameraBand(128, 1).Row(0), LineParams{Shift: 1})
	var c Codec
	for i := 0; i < b.N; i++ {
		if _, err := c.DecompressLine(wire, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressBand(b *testing.B) {
	img, lp := cameraBand(128, DefaultSliceLines), LineParams{Shift: 1}
	var (
		c   Codec
		dst []byte
	)
	for i := 0; i < b.N; i++ {
		dst = c.CompressBand(dst[:0], img, lp)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*DefaultSliceLines), "ns/line")
}

func BenchmarkDecompressBand(b *testing.B) {
	var c Codec
	src := cameraBand(128, DefaultSliceLines)
	data := c.CompressBand(nil, src, LineParams{Shift: 1})
	img := NewFrame(128, DefaultSliceLines)
	for i := 0; i < b.N; i++ {
		if _, err := c.DecompressBand(img, data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*DefaultSliceLines), "ns/line")
}

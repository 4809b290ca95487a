package video

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// DecompressBand decodes packed lines (CompressBand's form) into img's
// rows, as Assembler.Add does: frameBand, then decodeBand. img, which
// may be a view, must already be the band's size. It returns how many
// rows it decoded. Lengths that run past data, or a line count other
// than img.H, are a framing error, found before any row is decoded
// (n == 0). ErrLineTooShort means line n's body is too short for img.W;
// rows 0 to n-1 are decoded.
func (c *Codec) DecompressBand(img *Frame, data []byte) (int, error) {
	rows, even, err := frameBand(img.W, img.H, data)
	c.decodeBand(img, data, rows, even)
	return rows, err
}

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

// FuzzBandCodec checks the band kernels against the per-line reference:
// CompressBand's bytes against CompressLine's packed with lengths,
// DecompressBand's rows and error class against DecompressLine on bands
// with one header, with a header per line (raw and sub-sampled among
// them), with the fuzzed bytes as every line's body under each header,
// and with their framing cut short, overrun or padded.
func FuzzBandCodec(f *testing.F) {
	f.Add(uint16(128), uint8(32), uint8(1), uint8(0), []byte("camera"))
	f.Add(uint16(7), uint8(5), uint8(3), uint8(0xa7), bytes.Repeat([]byte{0}, 40))
	f.Add(uint16(1), uint8(1), uint8(0), uint8(0x31), []byte{255})
	f.Add(uint16(299), uint8(39), uint8(2), uint8(0xfe), append(bytes.Repeat([]byte{0}, 33), bytes.Repeat([]byte{255}, 31)...))
	f.Add(uint16(33), uint8(6), uint8(0), uint8(0x0c), []byte{0, 255, 0, 255, 128, 7})
	f.Add(uint16(128), uint8(31), uint8(3), uint8(0), bytes.Repeat([]byte{0x77}, 64)) // +7s saturate at 255
	f.Add(uint16(128), uint8(31), uint8(3), uint8(0), bytes.Repeat([]byte{0x88}, 64)) // -8s saturate at 0
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

		// pix as the line bodies, well framed, under every header: DPCM
		// bodies the encoder would not write, whose predictions leave
		// [0, 255] and must saturate as DecompressLine's do.
		if len(pix) > 0 {
			for hdr := byte(0); hdr < 16; hdr++ {
				size := CompressedLineSize(width, paramsFromHeader(hdr))
				var bodies []byte
				for y := 0; y < height; y++ {
					line := append(make([]byte, 0, size), hdr)
					for i := 1; i < size; i++ {
						line = append(line, pix[(y*size+i)%len(pix)])
					}
					bodies = packRef(bodies, line)
				}
				checkDecompressBand(t, &c, bodies, width, height, fmt.Sprintf("pix bodies under header %#x", hdr))
			}
		}

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

// FuzzBandKernels checks the 16-line kernels, dpcm16 and undpcm16,
// against the portable ones, dpcmRows and undpcmRows, on rows and
// bodies made from the fuzzed bytes (mixed with a PRNG stream when seed
// is not 0): every shift, widths 32 to 256 in steps of 32, heights 1 to
// 48 in groups of 16 and a portable tail, lines at a stride that is not
// a multiple of 16. The band is a view at an odd x of a frame wider
// than it by a drawn margin (its pixel row stride greater than w), and
// the reference runs over a copy of the band, packed. The body bytes,
// the pixels and the lines to decode again must be the same, and no
// byte between the lines, or of the frame around the view, may change.
func FuzzBandKernels(f *testing.F) {
	f.Add(uint8(3), uint8(31), uint8(1), uint8(0), uint64(0), []byte("camera"))
	f.Add(uint8(0), uint8(15), uint8(3), uint8(5), uint64(7), []byte{0, 255})
	f.Add(uint8(7), uint8(47), uint8(0), uint8(64), uint64(1), []byte{0x77, 0x88, 0x80})
	f.Add(uint8(1), uint8(20), uint8(2), uint8(255), uint64(0), bytes.Repeat([]byte{0x77}, 64))
	f.Fuzz(func(t *testing.T, wsel, hsel, shift, margin uint8, seed uint64, data []byte) {
		w, h, s := 32*(1+int(wsel)%8), 1+int(hsel)%48, shift&3
		stride := w/2 + 3
		// The band's rectangle in a frame margin+1 pixels wider, at an
		// odd x when the margin leaves room for one.
		rect := Rect{X: int(margin)/2 | 1, Y: 1, W: w, H: h}
		rect.X = min(rect.X, int(margin))
		frame := NewFrame(w+int(margin)+1, h+2)
		fill := func(b []byte) {
			for i := range b {
				if seed != 0 {
					seed ^= seed << 13
					seed ^= seed >> 7
					seed ^= seed << 17
					b[i] = byte(seed >> 32)
				}
				if len(data) > 0 {
					b[i] ^= data[i%len(data)]
				}
			}
		}
		fill(frame.Pix)
		view := frame.View(rect)
		packed := NewFrame(w, h)
		for y := range h {
			copy(packed.Row(y), view.Row(y))
		}
		want := make([]byte, h*stride)
		fill(want)
		got := bytes.Clone(want)
		dpcmRows(want, stride, packed.Pix, w, w, h, s)
		ps, y := view.Stride, 0
		for ; y+16 <= h; y += 16 {
			dpcm16(got[y*stride:], stride, view.Pix[y*ps:], ps, w, s)
		}
		if y < h {
			dpcmRows(got[y*stride:], stride, view.Pix[y*ps:], ps, w, h-y, s)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%dx%d+%d shift %d, row stride %d: dpcm16 wrote other bytes than dpcmRows on the packed band", w, h, rect.X, s, ps)
		}

		bodies := make([]byte, h*stride)
		fill(bodies)
		around := bytes.Clone(frame.Pix)
		wantPix := NewFrame(w, h)
		for y := 0; y+16 <= h; y += 16 {
			g := undpcm16(view.Pix[y*ps:], ps, w, bodies[y*stride:], stride, s)
			r := undpcmRows(wantPix.Pix[y*w:], w, w, bodies[y*stride:], stride, s)
			if g != r {
				t.Fatalf("%dx%d shift %d, row stride %d, lines %d+: undpcm16 redoes lines %016b, undpcmRows %016b", w, h, s, ps, y, g, r)
			}
		}
		for y := range h &^ 15 {
			if !bytes.Equal(view.Row(y), wantPix.Row(y)) {
				t.Fatalf("%dx%d shift %d, row stride %d: undpcm16 decoded other pixels than undpcmRows in row %d", w, h, s, ps, y)
			}
			copy(view.Row(y), around[(rect.Y+y)*frame.W+rect.X:])
		}
		if !bytes.Equal(frame.Pix, around) {
			t.Fatalf("%dx%d shift %d, row stride %d: undpcm16 wrote outside the view", w, h, s, ps)
		}
	})
}

// TestCorruptRowInAGroupIsRedone: one line of a 16-line group has a
// body whose predictions leave [0, 255]. The kernel names that line
// alone, DecompressBand gives it DecompressLine's saturated pixels, and
// the other 15 rows keep the kernel's.
func TestCorruptRowInAGroupIsRedone(t *testing.T) {
	const w, h, bad = 128, 16, 5
	lp := LineParams{Shift: 3}
	var c Codec
	data := c.CompressBand(nil, cameraBand(w, h), lp)
	stride := len(data) / h
	wire := data[bad*stride+2 : (bad+1)*stride]
	for i := 1; i < len(wire); i++ {
		wire[i] = 0x77 // +56 a pixel: past 255 by the third
	}
	kernel := NewFrame(w, h)
	if redo := undpcm16(kernel.Pix, w, w, data[3:], stride, lp.Shift); redo != 1<<bad {
		t.Fatalf("undpcm16 redoes lines %016b, want only line %d", redo, bad)
	}
	saturated, _ := new(Codec).DecompressLine(wire, w)
	if bytes.Equal(saturated, kernel.Row(bad)) {
		t.Fatal("the corrupt line's kernel pixels are already DecompressLine's: the test shows nothing")
	}
	img := NewFrame(w, h)
	if n, err := c.DecompressBand(img, data); n != h || err != nil {
		t.Fatalf("DecompressBand = %d rows, %v", n, err)
	}
	for y := 0; y < h; y++ {
		want := kernel.Row(y)
		if y == bad {
			want = saturated
		}
		if !bytes.Equal(img.Row(y), want) {
			t.Errorf("row %d is %v, want %v", y, img.Row(y), want)
		}
	}
}

// TestDPCMStepClampsOnlyBelow checks, for every shift, prediction and
// pixel, the facts the band kernels rest on. The reconstruction
// pred + q<<shift never exceeds 255, and it falls below 0 only when
// px < 2^shift − 1. From a prediction that is a multiple of 1<<shift it
// never falls below 0 and stays such a multiple; every prediction a
// line makes is one, as a line starts at 128. So neither clamp of the
// per-line coder ever fires on the encoder's own chains.
func TestDPCMStepClampsOnlyBelow(t *testing.T) {
	for shift := 0; shift < 4; shift++ {
		for pred := 0; pred < 256; pred++ {
			aligned := pred%(1<<shift) == 0
			for px := 0; px < 256; px++ {
				r := pred + min(max((px-pred)>>shift, -8), 7)<<shift
				if r > 255 || r < 0 && (px >= 1<<shift-1 || aligned) || aligned && r%(1<<shift) != 0 {
					t.Fatalf("shift %d, prediction %d, pixel %d: reconstruction %d", shift, pred, px, r)
				}
			}
		}
	}
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
// row. The band benchmarks code one slice (four lines) per op and also
// report ns/line; their 128x32 cases code one videowall segment per op
// and report ns/px.

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
	benchCompressBand(b, DefaultSliceLines)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*DefaultSliceLines), "ns/line")
}

func BenchmarkDecompressBand(b *testing.B) {
	benchDecompressBand(b, DefaultSliceLines)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*DefaultSliceLines), "ns/line")
}

func BenchmarkCompressBand128x32(b *testing.B) {
	benchCompressBand(b, 32)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*128*32), "ns/px")
}

func BenchmarkDecompressBand128x32(b *testing.B) {
	benchDecompressBand(b, 32)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*128*32), "ns/px")
}

// The Portable twins time the portable kernels, dpcmLines and undpcm,
// over the same band and its packed lines, without the framing.

func BenchmarkCompressBand128x32Portable(b *testing.B) {
	img, lp := cameraBand(128, 32), LineParams{Shift: 1}
	var c Codec
	data := c.CompressBand(nil, img, lp)
	stride := len(data) / 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dpcmRows(data[3:], stride, img.Pix, 128, 128, 32, lp.Shift)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*128*32), "ns/px")
}

func BenchmarkDecompressBand128x32Portable(b *testing.B) {
	var c Codec
	data := c.CompressBand(nil, cameraBand(128, 32), LineParams{Shift: 1})
	stride := len(data) / 32
	img := NewFrame(128, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for y := 0; y < 32; y += 16 {
			if undpcmRows(img.Pix[y*128:], 128, 128, data[y*stride+3:], stride, 1) != 0 {
				b.Fatal("the camera band's predictions left [0, 255]")
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*128*32), "ns/px")
}

// benchCompressBand codes h rows of the camera band, 128 pixels wide,
// per op.
func benchCompressBand(b *testing.B, h int) {
	img, lp := cameraBand(128, h), LineParams{Shift: 1}
	var (
		c   Codec
		dst []byte
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.CompressBand(dst[:0], img, lp)
	}
}

// benchDecompressBand decodes h packed rows of the camera band, 128
// pixels wide, per op.
func benchDecompressBand(b *testing.B, h int) {
	var c Codec
	data := c.CompressBand(nil, cameraBand(128, h), LineParams{Shift: 1})
	img := NewFrame(128, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecompressBand(img, data); err != nil {
			b.Fatal(err)
		}
	}
}

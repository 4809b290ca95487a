package segment

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/occam"
)

func testBlocks(n int) [][]byte {
	blocks := make([][]byte, n)
	for i := range blocks {
		b := make([]byte, BlockSamples)
		for j := range b {
			b[j] = byte(i*16 + j)
		}
		blocks[i] = b
	}
	return blocks
}

func TestAudioConstants(t *testing.T) {
	if BlockDuration != 2*time.Millisecond {
		t.Fatalf("BlockDuration = %v, want 2ms", BlockDuration)
	}
	// The repository format: 40 ms segments of 320 bytes + 36 byte
	// header (§3.2).
	if RepositoryBlocksPerSegment*BlockSamples != 320 {
		t.Fatalf("repository segment carries %d bytes, want 320",
			RepositoryBlocksPerSegment*BlockSamples)
	}
	if AudioHeaderSize != 36 {
		t.Fatalf("AudioHeaderSize = %d, want the paper's 36 bytes", AudioHeaderSize)
	}
	if time.Duration(RepositoryBlocksPerSegment)*BlockDuration != 40*time.Millisecond {
		t.Fatal("repository segment does not span 40ms")
	}
}

func TestNewAudio(t *testing.T) {
	a := NewAudio(7, occam.Time(10*time.Millisecond), testBlocks(2))
	if a.Blocks() != 2 {
		t.Fatalf("Blocks() = %d", a.Blocks())
	}
	if a.Duration() != 4*time.Millisecond {
		t.Fatalf("Duration() = %v", a.Duration())
	}
	if a.Seq != 7 || a.Type != TypeAudio || a.Version != Version {
		t.Fatalf("header %+v", a.Common)
	}
	if a.SamplingRate != 8000 || a.Format != FormatMuLaw8 {
		t.Fatalf("audio header %+v", a)
	}
	if got := a.Block(1)[0]; got != 16 {
		t.Fatalf("Block(1)[0] = %d", got)
	}
}

func TestAudioTimestampResolution(t *testing.T) {
	// 64 µs ticks (§3.2).
	a := NewAudio(0, occam.Time(128*time.Microsecond), testBlocks(1))
	if a.Timestamp != 2 {
		t.Fatalf("Timestamp = %d, want 2 ticks of 64µs", a.Timestamp)
	}
	if TimestampTime(a.Timestamp) != occam.Time(128*time.Microsecond) {
		t.Fatal("TimestampTime not inverse of Timestamp")
	}
	// Sub-tick instants quantise down.
	if Timestamp(occam.Time(63*time.Microsecond)) != 0 {
		t.Fatal("sub-tick timestamp did not quantise")
	}
}

func TestAudioEncodeDecodeRoundTrip(t *testing.T) {
	a := NewAudio(99, occam.Time(time.Second), testBlocks(12))
	wire := a.Encode(nil)
	if len(wire) != a.WireSize() {
		t.Fatalf("wire %d bytes, WireSize %d", len(wire), a.WireSize())
	}
	got, n, err := DecodeAudio(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d", n, len(wire))
	}
	if got.Seq != a.Seq || got.Timestamp != a.Timestamp || !bytes.Equal(got.Data, a.Data) {
		t.Fatal("round trip mismatch")
	}
}

func TestAudioDecodeErrors(t *testing.T) {
	a := NewAudio(1, 0, testBlocks(2))
	wire := a.Encode(nil)

	if _, _, err := DecodeAudio(wire[:10]); !errors.Is(err, ErrShort) {
		t.Fatalf("short common header: %v", err)
	}
	if _, _, err := DecodeAudio(wire[:CommonHeaderSize+4]); !errors.Is(err, ErrShort) {
		t.Fatalf("short audio header: %v", err)
	}
	if _, _, err := DecodeAudio(wire[:len(wire)-1]); !errors.Is(err, ErrShort) {
		t.Fatalf("truncated data: %v", err)
	}

	bad := append([]byte(nil), wire...)
	bad[3] = 9 // version
	if _, _, err := DecodeAudio(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}

	bad = append([]byte(nil), wire...)
	bad[19] = byte(len(wire) + 8) // length field
	if _, _, err := DecodeAudio(append(bad, 0, 0, 0, 0, 0, 0, 0, 0)); !errors.Is(err, ErrBadLength) {
		t.Fatalf("bad length: %v", err)
	}

	v := NewVideo(1, 0, 0, 1, 0, 0, 0, 8, 0, 1, make([]byte, 8))
	if _, _, err := DecodeAudio(v.Encode(nil)); !errors.Is(err, ErrBadType) {
		t.Fatal("video decoded as audio")
	}
}

func TestAudioRaggedBlocksRejected(t *testing.T) {
	a := NewAudio(1, 0, testBlocks(1))
	a.Data = a.Data[:10] // not a whole block
	a.Length = uint32(a.WireSize())
	wire := a.Encode(nil)
	if _, _, err := DecodeAudio(wire); !errors.Is(err, ErrRagged) {
		t.Fatalf("ragged audio accepted: %v", err)
	}
}

func TestVideoEncodeDecodeRoundTrip(t *testing.T) {
	data := make([]byte, 64*16)
	for i := range data {
		data[i] = byte(i)
	}
	v := NewVideo(42, occam.Time(40*time.Millisecond), 3, 4, 2, 100, 50, 64, 50, 16, data)
	v.Args = []uint32{2, 7}
	v.Length = uint32(v.WireSize())
	wire := v.Encode(nil)
	if len(wire) != v.WireSize() {
		t.Fatalf("wire %d bytes, WireSize %d", len(wire), v.WireSize())
	}
	got, n, err := decodeVideo(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d", n, len(wire))
	}
	if got.FrameNumber != 3 || got.NumSegments != 4 || got.SegmentNum != 2 {
		t.Fatalf("frame placement %+v", got)
	}
	if got.XOffset != 100 || got.YOffset != 50 || got.Width != 64 ||
		got.StartLine != 50 || got.NumLines != 16 {
		t.Fatalf("geometry %+v", got)
	}
	if len(got.Args) != 2 || got.Args[1] != 7 {
		t.Fatalf("args %v", got.Args)
	}
	if !bytes.Equal(got.Data, data) {
		t.Fatal("data mismatch")
	}
}

func TestVideoResetIsNewVideo(t *testing.T) {
	// A reused segment, left with args and a compression scheme by its
	// last use, encodes as a fresh one once Reset.
	v := NewVideo(1, 0, 0, 1, 0, 0, 0, 8, 0, 1, make([]byte, 8))
	v.Compression, v.Args = CompressionDPCM, []uint32{3}
	data := []byte{1, 2, 3, 4}
	at := occam.Time(80 * time.Millisecond)
	want := NewVideo(9, at, 2, 4, 3, 16, 32, 64, 32, 2, data).Encode(nil)
	if got := v.Reset(9, at, 2, 4, 3, 16, 32, 64, 32, 2, data).Encode(nil); !bytes.Equal(got, want) {
		t.Fatalf("Reset encodes %x, NewVideo %x", got, want)
	}
}

func TestVideoVariableArgs(t *testing.T) {
	// "We have a variable number of fields after the compression type
	// field so that compression parameters for any scheme can be
	// accommodated" (§3.3).
	for _, nargs := range []int{0, 1, 5, 16} {
		v := NewVideo(1, 0, 0, 1, 0, 0, 0, 8, 0, 1, make([]byte, 8))
		v.Args = make([]uint32, nargs)
		for i := range v.Args {
			v.Args[i] = uint32(i * 3)
		}
		v.Length = uint32(v.WireSize())
		got, _, err := decodeVideo(v.Encode(nil))
		if err != nil {
			t.Fatalf("nargs=%d: %v", nargs, err)
		}
		if len(got.Args) != nargs {
			t.Fatalf("nargs=%d decoded %d", nargs, len(got.Args))
		}
	}
}

func TestVideoDecodeErrors(t *testing.T) {
	v := NewVideo(1, 0, 0, 1, 0, 0, 0, 8, 0, 1, make([]byte, 8))
	wire := v.Encode(nil)
	if _, _, err := decodeVideo(wire[:CommonHeaderSize+8]); !errors.Is(err, ErrShort) {
		t.Fatalf("short video header: %v", err)
	}
	a := NewAudio(1, 0, testBlocks(1))
	if _, _, err := decodeVideo(a.Encode(nil)); !errors.Is(err, ErrBadType) {
		t.Fatal("audio decoded as video")
	}
	// Absurd argument count must be rejected, not allocated.
	bad := append([]byte(nil), wire...)
	bad[CommonHeaderSize+28] = 0xFF
	bad[CommonHeaderSize+29] = 0xFF
	bad[CommonHeaderSize+30] = 0xFF
	bad[CommonHeaderSize+31] = 0xFF
	if _, _, err := decodeVideo(bad); err == nil {
		t.Fatal("absurd arg count accepted")
	}
}

func TestGenericDecode(t *testing.T) {
	// ParseWire is the decoder that does not know the type up front:
	// it must tell audio from video by the common header alone.
	a := NewAudio(5, 0, testBlocks(2))
	w, err := ParseWire(a.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if w.Type() != TypeAudio {
		t.Fatal("generic decode misidentified audio")
	}
	v := NewVideo(1, 0, 0, 1, 0, 0, 0, 8, 0, 1, make([]byte, 8))
	w, err = ParseWire(v.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if w.Type() != TypeVideo {
		t.Fatal("generic decode misidentified video")
	}
	if _, err := ParseWire(nil); !errors.Is(err, ErrShort) {
		t.Fatal("nil buffer accepted")
	}
}

func TestGenericDecodeAllTypes(t *testing.T) {
	// All three segment types of §3 must round-trip through the
	// decoder for their type. Test segments (figure 3.3 "test in")
	// share the audio wire layout but carry TypeTest.
	a := NewAudio(5, occam.Time(time.Millisecond), testBlocks(3))
	tst := NewAudio(6, occam.Time(time.Millisecond), testBlocks(2))
	tst.Type = TypeTest
	v := NewVideo(7, 0, 0, 1, 0, 0, 0, 8, 0, 1, make([]byte, 8))

	audio := func(b []byte) (Segment, int, error) { return DecodeAudio(b) }
	video := func(b []byte) (Segment, int, error) { return decodeVideo(b) }
	for _, tc := range []struct {
		decode func([]byte) (Segment, int, error)
		typ    Type
		seq    uint32
		wire   []byte
	}{
		{audio, TypeAudio, 5, a.Encode(nil)},
		{audio, TypeTest, 6, tst.Encode(nil)},
		{video, TypeVideo, 7, v.Encode(nil)},
	} {
		got, n, err := tc.decode(tc.wire)
		if err != nil {
			t.Fatalf("%v: %v", tc.typ, err)
		}
		if n != len(tc.wire) {
			t.Fatalf("%v: consumed %d of %d", tc.typ, n, len(tc.wire))
		}
		if got.Head().Type != tc.typ || got.Head().Seq != tc.seq {
			t.Fatalf("%v: decoded header %+v", tc.typ, got.Head())
		}
	}

	// The test segment's payload must survive the trip too.
	got, _, err := DecodeAudio(tst.Encode(nil))
	if err != nil {
		t.Fatalf("DecodeAudio rejected a test segment: %v", err)
	}
	if !bytes.Equal(got.Data, tst.Data) {
		t.Fatal("test segment data mismatch")
	}
	for _, tc := range []struct {
		decode func([]byte) (Segment, int, error)
		typ    Type
	}{{audio, TypeAudio}, {video, TypeVideo}} {
		if _, _, err := tc.decode(nil); !errors.Is(err, ErrShort) {
			t.Fatalf("%v decoder accepted a nil buffer: %v", tc.typ, err)
		}
	}
}

func TestTypeString(t *testing.T) {
	if TypeAudio.String() != "audio" || TypeVideo.String() != "video" ||
		TypeTest.String() != "test" || Type(9).String() == "" {
		t.Fatal("Type.String broken")
	}
}

func TestQuickAudioRoundTrip(t *testing.T) {
	f := func(seq uint32, ts int64, nblocks uint8, fill byte) bool {
		n := int(nblocks%12) + 1
		blocks := make([][]byte, n)
		for i := range blocks {
			b := make([]byte, BlockSamples)
			for j := range b {
				b[j] = fill + byte(i+j)
			}
			blocks[i] = b
		}
		if ts < 0 {
			ts = -ts
		}
		a := NewAudio(seq, occam.Time(ts), blocks)
		got, _, err := DecodeAudio(a.Encode(nil))
		if err != nil {
			return false
		}
		return got.Seq == seq && bytes.Equal(got.Data, a.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// decodeVideo decodes the video segment at the start of buf as a
// receiving box does, with Wire.DecodeVideoInto, and returns it with
// the byte count its header claims.
func decodeVideo(buf []byte) (*Video, int, error) {
	v := new(Video)
	if err := WireOver(buf).DecodeVideoInto(v); err != nil {
		return nil, 0, err
	}
	return v, int(v.Length), nil
}

func TestBackToBackSegmentsDecode(t *testing.T) {
	// Several segments concatenated on a byte stream must parse in
	// sequence using the consumed counts.
	var wire []byte
	for i := 0; i < 5; i++ {
		wire = NewAudio(uint32(i), 0, testBlocks(i%3+1)).Encode(wire)
	}
	off, count := 0, 0
	for off < len(wire) {
		a, n, err := DecodeAudio(wire[off:])
		if err != nil {
			t.Fatal(err)
		}
		if a.Seq != uint32(count) {
			t.Fatalf("segment %d has seq %d", count, a.Seq)
		}
		off += n
		count++
	}
	if count != 5 {
		t.Fatalf("decoded %d segments", count)
	}
}

package segment

import (
	"bytes"
	"testing"

	"repro/internal/occam"
)

func testBlock(fill byte) []byte {
	b := make([]byte, BlockSamples)
	for i := range b {
		b[i] = fill + byte(i)
	}
	return b
}

func testAudio() *Audio {
	return NewAudio(42, occam.Time(5_000_000), [][]byte{testBlock(1), testBlock(100)})
}

func testVideo() *Video {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i * 3)
	}
	v := NewVideo(9, occam.Time(2_000_000), 4, 2, 1, 0, 64, 128, 64, 1, data)
	v.Compression = CompressionDPCM
	v.Args = []uint32{7, 11}
	v.Length = uint32(v.WireSize())
	return v
}

func TestWireHeaderView(t *testing.T) {
	a := testAudio()
	pl := NewWirePool()
	w := pl.Encode(a)
	if w.IsZero() || w.Len() != a.WireSize() {
		t.Fatalf("wire len %d, want %d", w.Len(), a.WireSize())
	}
	if !bytes.Equal(w.b, a.Encode(nil)) {
		t.Fatal("wire bytes differ from the segment's encoding")
	}
	if w.Seq() != a.Seq || w.Timestamp() != a.Timestamp || w.Type() != TypeAudio {
		t.Fatalf("header view mismatch: seq=%d ts=%d type=%v", w.Seq(), w.Timestamp(), w.Type())
	}
	if w.AudioBlocks() != a.Blocks() {
		t.Fatalf("blocks %d, want %d", w.AudioBlocks(), a.Blocks())
	}
	for i := 0; i < a.Blocks(); i++ {
		if !bytes.Equal(w.AudioBlock(i), a.Block(i)) {
			t.Fatalf("block %d differs", i)
		}
	}
}

func TestWireDecodeMatchesStructDecode(t *testing.T) {
	a := testAudio()
	pl := NewWirePool()
	w := pl.Encode(a)
	got, err := w.DecodeAudio()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != a.Seq || got.Timestamp != a.Timestamp || !bytes.Equal(got.Data, a.Data) {
		t.Fatal("decoded audio differs from original")
	}

	v := testVideo()
	wv := pl.Encode(v)
	var dec Video
	if err := wv.DecodeVideoInto(&dec); err != nil {
		t.Fatal(err)
	}
	if dec.FrameNumber != v.FrameNumber || dec.Width != v.Width ||
		dec.NumLines != v.NumLines || len(dec.Args) != len(v.Args) ||
		!bytes.Equal(dec.Data, v.Data) {
		t.Fatal("decoded video differs from original")
	}
	// The in-place decode must alias, not copy, the pixel data.
	if &dec.Data[0] != &wv.Bytes()[wv.Len()-len(v.Data)] {
		t.Fatal("DecodeVideoInto copied Data instead of aliasing the wire")
	}
}

func TestWireRefcountAndPoolReuse(t *testing.T) {
	pl := NewWirePool()
	w := pl.Encode(testAudio())
	w.Retain(2)
	if w.ctl.refs != 3 {
		t.Fatalf("refs %d, want 3", w.ctl.refs)
	}
	w.Release()
	w.Release()
	if pl.FreeLen() != 0 {
		t.Fatal("storage freed while referenced")
	}
	w.Release()
	if pl.FreeLen() != 1 {
		t.Fatal("storage not returned at zero refs")
	}
	// Same storage must be reused without a fresh allocation.
	news := pl.News
	w2 := pl.Encode(testAudio())
	if pl.News != news {
		t.Fatal("pool allocated fresh storage despite a free record")
	}
	if pl.FreeLen() != 0 || w2.ctl.refs != 1 {
		t.Fatal("reused wire not handed out with one reference")
	}
}

func TestWireOverRelease(t *testing.T) {
	pl := NewWirePool()
	w := pl.Encode(testAudio())
	w.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	w.Release()
}

func TestWireUnmanaged(t *testing.T) {
	var zero Wire
	zero.Retain(3)
	zero.Release() // no-ops, no panic
	if !zero.IsZero() || zero.ctl != nil {
		t.Fatal("zero wire not inert")
	}
	w := WireOver(testAudio().Encode(nil))
	w.Retain(1)
	w.Release()
	w.Release() // unmanaged: still a no-op
}

func TestParseWireRejectsCorrupt(t *testing.T) {
	good := testAudio().Encode(nil)
	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:CommonHeaderSize-1],
		"truncated":   good[:len(good)-1],
		"trailing":    append(append([]byte(nil), good...), 0),
		"bad version": func() []byte { b := append([]byte(nil), good...); b[3] = 9; return b }(),
		"bad type":    func() []byte { b := append([]byte(nil), good...); b[15] = 77; return b }(),
		"bad length":  func() []byte { b := append([]byte(nil), good...); b[19] ^= 1; return b }(),
	}
	for name, buf := range cases {
		if _, err := ParseWire(buf); err == nil {
			t.Errorf("%s: ParseWire accepted corrupt input", name)
		}
	}
	if _, err := ParseWire(good); err != nil {
		t.Fatalf("good wire rejected: %v", err)
	}
}

// FuzzWireRoundTrip checks that any input ParseWire accepts decodes
// cleanly and re-encodes to the identical bytes, and that corrupt
// inputs never panic. Run the smoke pass with:
//
//	go test -fuzz=FuzzWireRoundTrip -fuzztime=10s ./internal/segment
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(testAudio().Encode(nil))
	f.Add(testVideo().Encode(nil))
	f.Add([]byte{})
	f.Add(make([]byte, CommonHeaderSize))
	f.Fuzz(func(t *testing.T, buf []byte) {
		w, err := ParseWire(buf)
		if err != nil {
			return // corrupt input: rejected without panicking
		}
		_ = w.Seq()
		_ = w.Timestamp()
		switch w.Type() {
		case TypeAudio, TypeTest:
			a, err := w.DecodeAudio()
			if err != nil {
				t.Fatalf("validated audio wire failed to decode: %v", err)
			}
			if got := a.Encode(nil); !bytes.Equal(got, buf) {
				t.Fatal("audio re-encode differs from original bytes")
			}
			for i := 0; i < w.AudioBlocks(); i++ {
				if !bytes.Equal(w.AudioBlock(i), a.Block(i)) {
					t.Fatalf("in-place block %d differs from decoded block", i)
				}
			}
		case TypeVideo:
			var v Video
			if err := w.DecodeVideoInto(&v); err != nil {
				t.Fatalf("validated video wire failed to decode: %v", err)
			}
			if got := v.Encode(nil); !bytes.Equal(got, buf) {
				t.Fatal("video re-encode differs from original bytes")
			}
		}
	})
}

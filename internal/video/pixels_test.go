package video_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/video"
	"repro/internal/workload"
)

// pixelsPin is the SHA-256 of every wire byte and every decoded pixel
// TestBandCodecPixelsPinned produces. It is recorded once and never
// edited: a codec change that moves one wire byte or one decoded pixel
// fails here.
const pixelsPin = "9cce8c9e909572f8fbfa960b13a211e678f21e0403b225b7c50e324d8b4d97d4"

// TestBandCodecPixelsPinned codes camera frames 0–99 at 128×128 the way
// the boards do on videowall — each frame as four 32-line bands — at
// every shift, through CompressBand and then DecompressBand, and hashes
// the packed lines and the decoded rows.
func TestBandCodecPixelsPinned(t *testing.T) {
	const w, h, bandH = 128, 128, 32
	cam := workload.NewCamera(w, h)
	frame := video.NewFrame(w, h)
	out := video.NewFrame(w, bandH)
	var (
		enc, dec video.Codec
		packed   []byte
	)
	sum := sha256.New()
	for n := 0; n < 100; n++ {
		cam.Draw(frame, n)
		for y := 0; y < h; y += bandH {
			band := &video.Frame{W: w, H: bandH, Pix: frame.Pix[y*w : (y+bandH)*w]}
			for shift := uint8(0); shift < 4; shift++ {
				packed = enc.CompressBand(packed[:0], band, video.LineParams{Shift: shift})
				if rows, err := dec.DecompressBand(out, packed); err != nil || rows != bandH {
					t.Fatalf("frame %d band %d shift %d: DecompressBand = %d rows, %v", n, y/bandH, shift, rows, err)
				}
				sum.Write(packed)
				sum.Write(out.Pix)
			}
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != pixelsPin {
		t.Errorf("wire bytes and decoded pixels hash to %s, want %s", got, pixelsPin)
	}
}

package workload

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/segment"
)

// TestSourceBlocksPinned hashes the first 1000 blocks each built-in
// source writes through FillBlock: a change to how a source is called
// must not change a sample it produces.
func TestSourceBlocksPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		src  interface{ FillBlock([]byte) }
		want string
	}{
		{"tone", NewTone(400, 10000), "124e4e24d7627628"},
		{"speech", NewSpeech(3, 12000), "f0faf2ba57e7ade5"},
		{"silence", Silence{}, "c1130846d44e78ec"},
		{"ramp", &Ramp{}, "a9f7eaf3ce14587e"},
	} {
		h := sha256.New()
		blk := make([]byte, segment.BlockSamples)
		for i := 0; i < 1000; i++ {
			c.src.FillBlock(blk)
			h.Write(blk)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != c.want {
			t.Errorf("%s: first 1000 blocks hash to %s, want %s", c.name, got, c.want)
		}
	}
}

package workload

import (
	"testing"

	"repro/internal/mulaw"
	"repro/internal/segment"
	"repro/internal/video"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds collide immediately")
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zeros")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Intn never produced %d", v)
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if hits < 28000 || hits > 32000 {
		t.Fatalf("Bool(0.3) hit %d of 100000", hits)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(13)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(5.0)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 4.8 || mean > 5.2 {
		t.Fatalf("Exp mean %v, want ≈5", mean)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(17)
	var sum, sq float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sq += (v - 10) * (v - 10)
	}
	mean := sum / n
	if mean < 9.9 || mean > 10.1 {
		t.Fatalf("Norm mean %v", mean)
	}
	variance := sq / n
	if variance < 3.6 || variance > 4.4 {
		t.Fatalf("Norm variance %v, want ≈4", variance)
	}
}

func TestToneBlockShape(t *testing.T) {
	tone := NewTone(400, 10000)
	b := tone.NextBlock()
	if len(b) != segment.BlockSamples {
		t.Fatalf("block of %d samples", len(b))
	}
	// A 400 Hz tone at amplitude 10000 must actually oscillate.
	var peak int32
	for i := 0; i < 50; i++ {
		if p := mulaw.Peak(tone.NextBlock()); p > peak {
			peak = p
		}
	}
	if peak < 8000 || peak > 12000 {
		t.Fatalf("tone peak %d, want ≈10000", peak)
	}
}

func TestToneIsPeriodic(t *testing.T) {
	// 1000 Hz at 8 kHz: period 8 samples — two blocks a period apart
	// are identical.
	a := NewTone(1000, 10000)
	b := NewTone(1000, 10000)
	b.NextBlock() // offset by exactly one block = 2 periods
	first := a.NextBlock()
	_ = first
	blkA := a.NextBlock()
	blkB := b.NextBlock()
	for i := range blkA {
		if blkA[i] != blkB[i] {
			t.Fatal("tone not periodic")
		}
	}
}

func TestSpeechAlternates(t *testing.T) {
	s := NewSpeech(3, 12000)
	talkBlocks, silentBlocks := 0, 0
	transitions := 0
	prev := s.talking
	for i := 0; i < 100000; i++ { // 200 s of speech
		b := s.NextBlock()
		if s.talking {
			talkBlocks++
		} else {
			silentBlocks++
			if mulaw.Energy(b) != 0 {
				t.Fatal("silent period has energy")
			}
		}
		if s.talking != prev {
			transitions++
			prev = s.talking
		}
	}
	if talkBlocks == 0 || silentBlocks == 0 {
		t.Fatalf("talk=%d silent=%d: no alternation", talkBlocks, silentBlocks)
	}
	if transitions < 20 {
		t.Fatalf("only %d transitions in 200s", transitions)
	}
	// Mean spurt 1.2s vs silence 1.8s: roughly 40% talk.
	frac := float64(talkBlocks) / float64(talkBlocks+silentBlocks)
	if frac < 0.25 || frac > 0.55 {
		t.Fatalf("talk fraction %v", frac)
	}
}

func TestSilenceSource(t *testing.T) {
	var s Silence
	if mulaw.Energy(s.NextBlock()) != 0 {
		t.Fatal("Silence source not silent")
	}
}

func TestRampDeterministic(t *testing.T) {
	a, b := &Ramp{}, &Ramp{}
	for i := 0; i < 10; i++ {
		ba, bb := a.NextBlock(), b.NextBlock()
		for j := range ba {
			if ba[j] != bb[j] {
				t.Fatal("ramp not deterministic")
			}
		}
	}
}

func TestCameraFramesFollowTheFormula(t *testing.T) {
	// Frames 0–300 take the bright block across the picture and through
	// its wrap back to the left edge. Four rows at every width from 1 to
	// 300, the middle two crossed by the block, check render's copied
	// rows wherever the 128-pixel pattern starts and ends.
	sizes := [][2]int{{128, 64}, {37, 19}}
	for w := 1; w <= 300; w++ {
		sizes = append(sizes, [2]int{w, 4})
	}
	for _, size := range sizes {
		w, h := size[0], size[1]
		cam, f := NewCamera(w, h), video.NewFrame(w, h)
		bs := w / 8
		for n := 0; n <= 300; n++ {
			cam.Draw(f, n)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					want := byte(x*2 + y + n*3)
					if bx := n % (w - bs); x >= bx && x < bx+bs && y >= h/3 && y < h/3+bs {
						want = 250
					}
					if got := f.At(x, y); got != want {
						t.Fatalf("%dx%d frame %d pixel (%d, %d) = %d, want %d", w, h, n, x, y, got, want)
					}
				}
			}
		}
	}
}

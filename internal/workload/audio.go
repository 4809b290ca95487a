package workload

import (
	"math"
	"repro/internal/mulaw"
	"repro/internal/segment"
)

// sineTable holds one cycle of a unit sine wave, 256 steps, scaled to
// 1<<14.
var sineTable [256]int32

func init() {
	for i := range sineTable {
		sineTable[i] = int32(math.Round(16384 * math.Sin(2*math.Pi*float64(i)/256)))
	}
}

// AudioSource produces successive 2 ms blocks of µ-law samples.
type AudioSource interface {
	// FillBlock overwrites dst (BlockSamples bytes) with the next
	// 16-sample µ-law block.
	FillBlock(dst []byte)
}

// Tone is a steady sine tone, useful for loss-audibility experiments
// ("undetectable except during solo violin pieces").
type Tone struct {
	amplitude int32
	phase     uint32
	step      uint32 // phase step per sample, 8.8 fixed point of table index
}

// NewTone returns a tone source at the given frequency (Hz) and
// linear amplitude.
func NewTone(freqHz int, amplitude int32) *Tone {
	// Phase advances freq/8000 cycles per sample; table has 256
	// entries; use 24.8 fixed point.
	return &Tone{
		amplitude: amplitude,
		step:      uint32(freqHz * 256 * 256 / segment.SampleRate),
	}
}

// FillBlock writes the next 2 ms of the tone into dst.
func (t *Tone) FillBlock(dst []byte) {
	for i := range dst {
		idx := (t.phase >> 8) & 0xFF
		v := sineTable[idx] * t.amplitude / 16384
		dst[i] = mulaw.Encode(int16(clamp(v)))
		t.phase += t.step
	}
}

// Speech is a speech-like source: alternating talk spurts and
// silences with exponentially distributed durations (the classic
// on/off model), carrying a modulated tone during spurts. It drives
// the muting and mixing experiments.
type Speech struct {
	rng        *RNG
	tone       *Tone
	talking    bool
	blocksLeft int
	meanTalk   float64 // blocks
	meanSilent float64 // blocks
}

// NewSpeech returns a speech-like source. Mean talk spurt 1.2 s and
// mean silence 1.8 s, in 2 ms blocks.
func NewSpeech(seed uint64, amplitude int32) *Speech {
	return &Speech{
		rng:        NewRNG(seed),
		tone:       NewTone(200, amplitude),
		meanTalk:   600,
		meanSilent: 900,
	}
}

// FillBlock writes the next 2 ms of speech-like audio into dst.
func (s *Speech) FillBlock(dst []byte) {
	if s.blocksLeft <= 0 {
		s.talking = !s.talking
		mean := s.meanSilent
		if s.talking {
			mean = s.meanTalk
		}
		s.blocksLeft = int(s.rng.Exp(mean)) + 1
	}
	s.blocksLeft--
	if !s.talking {
		for i := range dst {
			dst[i] = mulaw.Silence
		}
		return
	}
	s.tone.FillBlock(dst)
}

// Silence is an always-quiet source.
type Silence struct{}

// FillBlock writes 2 ms of silence into dst.
func (Silence) FillBlock(dst []byte) {
	for i := range dst {
		dst[i] = mulaw.Silence
	}
}

// Ramp is a deterministic sawtooth marking each sample with its
// index, so tests can verify ordering and loss precisely.
type Ramp struct{ n uint32 }

// FillBlock writes the next 16 samples of the ramp into dst.
func (r *Ramp) FillBlock(dst []byte) {
	for i := range dst {
		dst[i] = mulaw.Encode(int16(r.n % 8000))
		r.n++
	}
}

func clamp(v int32) int32 {
	switch {
	case v > 32767:
		return 32767
	case v < -32768:
		return -32768
	}
	return v
}

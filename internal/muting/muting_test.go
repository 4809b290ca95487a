package muting

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/mulaw"
)

const blk = int64(2 * time.Millisecond)

func loud() []byte {
	b := make([]byte, 16)
	for i := range b {
		b[i] = mulaw.Encode(20000)
	}
	return b
}

func quiet() []byte {
	b := make([]byte, 16)
	for i := range b {
		b[i] = mulaw.Encode(100)
	}
	return b
}

func TestFullVolumeByDefault(t *testing.T) {
	m := New(Config{})
	if m.StageAt(0) != Full || m.FactorAt(0) != 1.0 {
		t.Fatal("muting active with no speaker signal")
	}
}

func TestQuietSpeakerNeverMutes(t *testing.T) {
	m := New(Config{})
	for i := int64(0); i < 100; i++ {
		m.ObserveSpeaker(i*blk, quiet())
		if m.StageAt(i*blk) != Full {
			t.Fatalf("muted at block %d with quiet speaker", i)
		}
	}
}

func TestSilentBlockChangesNothing(t *testing.T) {
	// An audio board with nothing to play skips its silent ticks instead
	// of observing them: that is exact because observing a block of
	// mulaw.Silence, whose peak is 0, leaves the muter as it was: with no
	// crossing yet, and through an episode's stages and its recovery.
	silence := make([]byte, 16)
	for i := range silence {
		silence[i] = mulaw.Silence
	}
	for _, loudAt := range []int64{-1, 0} {
		observed, skipped := New(Config{}), New(Config{})
		if loudAt >= 0 {
			observed.ObserveSpeaker(loudAt, loud())
			skipped.ObserveSpeaker(loudAt, loud())
		}
		for i := int64(1); i < 60; i++ {
			observed.ObserveSpeaker(i*blk, silence)
			for _, at := range []int64{i * blk, i*blk + blk/2} {
				if got, want := observed.StageAt(at), skipped.StageAt(at); got != want {
					t.Fatalf("loud at %d: after silence at %d, stage at %d is %v, want %v", loudAt, i*blk, at, got, want)
				}
			}
		}
	}
}

func TestLoudSpeakerTriggersDeepStageViaMid(t *testing.T) {
	m := New(Config{})
	m.ObserveSpeaker(0, loud())
	// Entry step: first block at the mid stage (no click), then deep.
	if st := m.StageAt(0); st != Mid {
		t.Fatalf("entry stage %v, want Mid", st)
	}
	if st := m.StageAt(blk); st != Deep {
		t.Fatalf("stage after entry %v, want Deep", st)
	}
}

func TestFigure41Timeline(t *testing.T) {
	// Figure 4.1: after the last threshold crossing, 22 ms at 20 %,
	// then 22 ms at 50 %, then back to 100 %.
	m := New(Config{})
	m.ObserveSpeaker(0, loud()) // single crossing at t=0
	type point struct {
		at   int64
		want Stage
	}
	pts := []point{
		{blk, Deep},                          // 2 ms
		{int64(20 * time.Millisecond), Deep}, // still inside 22 ms
		{int64(22 * time.Millisecond), Mid},  // deep hold expired
		{int64(42 * time.Millisecond), Mid},  // inside the 50 % stage
		{int64(44 * time.Millisecond), Full}, // fully recovered
		{int64(10 * time.Second), Full},      // stays recovered
	}
	for _, pt := range pts {
		if st := m.StageAt(pt.at); st != pt.want {
			t.Fatalf("stage at %v = %v, want %v", time.Duration(pt.at), st, pt.want)
		}
	}
}

func TestContinuedSpeechHoldsDeepStage(t *testing.T) {
	// While the speaker keeps crossing the threshold, the deep stage
	// persists — return "only occurs after the loudspeaker output has
	// remained below the threshold for sufficient time".
	m := New(Config{})
	var now int64
	for i := 0; i < 50; i++ { // 100 ms of continuous loud speech
		m.ObserveSpeaker(now, loud())
		now += blk
	}
	if st := m.StageAt(now); st != Deep {
		t.Fatalf("stage %v during continuous speech, want Deep", st)
	}
	// 22 ms after the last crossing the mid stage begins.
	last := now - blk
	if st := m.StageAt(last + int64(DeepHold)); st != Mid {
		t.Fatal("deep stage did not expire 22ms after last crossing")
	}
}

func TestRetriggerDuringRecovery(t *testing.T) {
	// A new crossing during the mid stage drops straight back to deep
	// (already attenuated, no click risk) and restarts the clock.
	m := New(Config{})
	m.ObserveSpeaker(0, loud())
	reAt := int64(30 * time.Millisecond) // mid stage
	if m.StageAt(reAt) != Mid {
		t.Fatal("test setup: not in mid stage")
	}
	m.ObserveSpeaker(reAt, loud())
	// A new episode would enter through the mid stage again.
	if st := m.StageAt(reAt); st != Deep {
		t.Fatalf("stage %v at the retrigger, want Deep: a retrigger during an episode is not a new episode", st)
	}
	if st := m.StageAt(reAt + blk); st != Deep {
		t.Fatalf("stage %v after retrigger, want Deep", st)
	}
}

func TestApplyMicAttenuates(t *testing.T) {
	m := New(Config{})
	m.ObserveSpeaker(0, loud())
	at := int64(10 * time.Millisecond) // deep stage
	mic := loud()
	orig := mulaw.Peak(mic)
	st := m.ApplyMic(at, mic)
	if st != Deep {
		t.Fatalf("applied stage %v", st)
	}
	got := mulaw.Peak(mic)
	want := float64(orig) * DeepFactor
	if float64(got) < want*0.7 || float64(got) > want*1.3 {
		t.Fatalf("deep-muted peak %d, want ≈%.0f", got, want)
	}
	if m.MutedBlocks() != 1 {
		t.Fatalf("MutedBlocks = %d", m.MutedBlocks())
	}
}

func TestApplyMicAtFullVolumeIsIdentityish(t *testing.T) {
	m := New(Config{})
	mic := loud()
	before := append([]byte(nil), mic...)
	if st := m.ApplyMic(0, mic); st != Full {
		t.Fatalf("stage %v", st)
	}
	for i := range mic {
		if mic[i] != before[i] {
			t.Fatal("full-volume apply modified samples")
		}
	}
}

func TestStepRatiosAvoidClicks(t *testing.T) {
	// "The two-stage muting was chosen because the steps are not so
	// high that audible clicks are heard": every transition in the
	// default schedule changes gain by at most a factor of 2.5.
	seq := []float64{1.0, MidFactor, DeepFactor, MidFactor, 1.0}
	for i := 1; i < len(seq); i++ {
		ratio := seq[i] / seq[i-1]
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > 2.6 {
			t.Fatalf("step %d changes gain by %.1fx", i, ratio)
		}
	}
}

func TestFigure41Values(t *testing.T) {
	// A speaker block peaking at the threshold leaves the muter at full
	// volume; one peaking above it mutes at 20 % for 22 ms after the
	// crossing, then 50 % for 22 ms more.
	var at, over byte
	for i := 0; i < 256; i++ {
		switch v := mulaw.Decode(byte(i)); {
		case v <= Threshold && v > mulaw.Decode(at):
			at = byte(i)
		case v > Threshold && (mulaw.Decode(over) <= Threshold || v < mulaw.Decode(over)):
			over = byte(i)
		}
	}
	m := New(Config{})
	m.ObserveSpeaker(0, bytes.Repeat([]byte{at}, 16))
	if m.StageAt(blk) != Full {
		t.Fatalf("a peak of %d crossed the threshold of %d", mulaw.Decode(at), Threshold)
	}
	m.ObserveSpeaker(blk, bytes.Repeat([]byte{over}, 16))
	if m.StageAt(blk) == Full {
		t.Fatalf("a peak of %d did not cross the threshold of %d", mulaw.Decode(over), Threshold)
	}
	for _, pt := range []struct {
		at     time.Duration
		factor float64
	}{
		{2 * time.Millisecond, 0.5}, // the entry step
		{4 * time.Millisecond, 0.2},
		{23 * time.Millisecond, 0.2},
		{24 * time.Millisecond, 0.5},
		{45 * time.Millisecond, 0.5},
		{46 * time.Millisecond, 1},
	} {
		if f := m.FactorAt(int64(pt.at)); f != pt.factor {
			t.Fatalf("factor at %v = %v, want %v", pt.at, f, pt.factor)
		}
	}
}

func TestReactionMargin(t *testing.T) {
	// "we have at least 4ms in which to react": a crossing observed
	// at t affects mic blocks applied at t and later; it must not
	// retroactively affect earlier times.
	m := New(Config{})
	m.ObserveSpeaker(int64(10*time.Millisecond), loud())
	if m.StageAt(int64(8*time.Millisecond)) != Full {
		t.Fatal("muting applied before the crossing")
	}
	if m.StageAt(int64(11*time.Millisecond)) == Full {
		t.Fatal("muting not applied after the crossing")
	}
}

func TestStageString(t *testing.T) {
	if Full.String() != "100%" || Mid.String() != "50%" || Deep.String() != "20%" || Stage(9).String() != "?" {
		t.Fatal("Stage.String broken")
	}
}

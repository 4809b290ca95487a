// Package muting implements the echo-suppression muting scheme of
// paper §4.3: the data stream to the loudspeaker is monitored for
// samples exceeding a threshold; while the threshold is being
// exceeded, the microphone stream is muted in two stages and returned
// to full volume only after the loudspeaker output has stayed below
// the threshold long enough for room reverberations to die away.
//
// The schedule is figure 4.1's: a deep stage at 20 % lasting 22 ms
// after the last threshold crossing ("the sounds from the speaker
// will have travelled about 22 feet before we return to the 50%
// factor"), then 50 % for a further 22 ms, then 100 %. Stage changes
// happen at 2 ms block granularity ("the smallest unit of data that
// we move around in the audio code"), and the two-stage shape keeps
// each step small enough that no audible click is heard. The factors
// are applied by µ-law lookup tables (mulaw.ScaleTable) as blocks are
// copied between fifos, giving at least 4 ms of reaction margin. The
// two tables are built once, and every Muter shares them.
package muting

import (
	"time"

	"repro/internal/mulaw"
)

// The values of figure 4.1.
const (
	// Threshold is the linear speaker level that triggers muting. The
	// paper makes the threshold, factors and holds "dynamically
	// alterable" but gives no threshold; a quarter of full scale suits
	// normal speech levels.
	Threshold = 8000
	// DeepFactor is the first muting stage.
	DeepFactor = 0.20
	// MidFactor is the second muting stage.
	MidFactor = 0.50
	// DeepHold is how long the deep stage lasts after the last
	// threshold crossing.
	DeepHold = 22 * time.Millisecond
	// MidHold is how long the mid stage lasts after that.
	MidHold = 22 * time.Millisecond
)

// The stages' µ-law scale tables.
var (
	deepTable = mulaw.NewScaleTable(DeepFactor)
	midTable  = mulaw.NewScaleTable(MidFactor)
)

// Config parameterises a Muter. It has no fields: every Muter runs
// figure 4.1's schedule.
type Config struct{}

// Stage identifies the current muting level.
type Stage int

const (
	// Full volume: no recent threshold crossing.
	Full Stage = iota
	// Mid is the 50 % stage.
	Mid
	// Deep is the 20 % stage.
	Deep
)

func (s Stage) String() string {
	switch s {
	case Full:
		return "100%"
	case Mid:
		return "50%"
	case Deep:
		return "20%"
	}
	return "?"
}

// Muter is the muting state machine. It is driven by time values
// (nanoseconds of stream time); the caller observes the loudspeaker
// stream and applies the muter to the microphone stream. Not safe for
// concurrent use.
type Muter struct {
	lastExceed    int64 // stream time of last threshold crossing (ns)
	everExceed    bool
	entryMidUntil int64 // entry step: mid stage until this time
	mutedBlocks   uint64
}

// New returns a Muter at full volume.
func New(Config) *Muter { return &Muter{} }

// MutedBlocks returns how many microphone blocks were attenuated.
func (m *Muter) MutedBlocks() uint64 { return m.mutedBlocks }

// ObserveSpeaker inspects one outgoing loudspeaker block at stream
// time now (in nanoseconds). The threshold detector runs before the
// samples reach the codec input fifo, giving the 4 ms reaction
// margin.
func (m *Muter) ObserveSpeaker(now int64, block []byte) {
	if mulaw.Peak(block) > Threshold {
		if !m.everExceed || m.StageAt(now) == Full {
			// A new mute episode: enter via the mid stage for one
			// block so no single step is too large.
			m.entryMidUntil = now + int64(2*time.Millisecond)
		}
		m.lastExceed = now
		m.everExceed = true
	}
}

// StageAt returns the muting stage in force at stream time now.
// On entry to a mute episode the first block passes through the mid
// (50 %) stage so neither step exceeds a factor of about 2.5 — "the
// steps are not so high that audible clicks are heard".
func (m *Muter) StageAt(now int64) Stage {
	if !m.everExceed {
		return Full
	}
	since := now - m.lastExceed
	if since < 0 {
		return Full
	}
	if now < m.entryMidUntil {
		return Mid
	}
	switch {
	case since < int64(DeepHold):
		return Deep
	case since < int64(DeepHold+MidHold):
		return Mid
	default:
		return Full
	}
}

// FactorAt returns the gain factor for stream time now.
func (m *Muter) FactorAt(now int64) float64 {
	switch m.StageAt(now) {
	case Deep:
		return DeepFactor
	case Mid:
		return MidFactor
	}
	return 1.0
}

// ApplyMic attenuates one microphone block in place according to the
// stage in force at stream time now, and returns the stage applied.
func (m *Muter) ApplyMic(now int64, block []byte) Stage {
	st := m.StageAt(now)
	switch st {
	case Deep:
		deepTable.Apply(block)
		m.mutedBlocks++
	case Mid:
		midTable.Apply(block)
		m.mutedBlocks++
	}
	return st
}

package mixer

import (
	"math/rand"
	"testing"

	"repro/internal/occam"
	"repro/internal/segment"
)

// Schedule steps: what a test does to a mixer next.
const (
	opDeliver = iota
	opShed
	opTick
	opRetire
)

// op is one step of a mixer schedule: a delivery of whole blocks of
// µ-law samples for stream id, a shed order (shed, or restore), a
// mixing tick at stream time now, or a retire of stream id.
type op struct {
	kind byte
	id   uint32
	seq  uint32
	shed bool
	data []byte
	now  int64
}

// deliver hands o's segment to m on a fresh pooled wire.
func (o op) deliver(m *Mixer) {
	var a segment.Audio
	m.Deliver(o.id, testPool.Encode(a.Reset(o.seq, occam.Time(o.now), o.data)))
}

// loudBytes are the samples a schedule favours: the two zeros, the two
// extremes (±32124, so two or more streams saturate) and their
// neighbours.
var loudBytes = []byte{0x00, 0x01, 0x7E, 0x7F, 0x80, 0x81, 0xFE, 0xFF}

// pinnedSchedule is a fixed run over eight streams: deliveries in
// order, with gaps, late duplicates and idle spells that deactivate a
// stream until it is reactivated, sheds and restores, and ticks.
func pinnedSchedule() []op {
	rng := rand.New(rand.NewSource(26))
	ids := []uint32{3, 7, 11, 12, 40, 41, 90, 1000}
	next := make(map[uint32]uint32)
	var ops []op
	var now int64
	for len(ops) < 20000 {
		id := ids[rng.Intn(len(ids))]
		switch r := rng.Intn(100); {
		case r < 45:
			seq := next[id]
			switch g := rng.Intn(20); {
			case g == 0:
				seq += 1 + uint32(rng.Intn(3)) // a gap: concealed
			case g == 1 && seq > 0:
				seq -= 1 + uint32(rng.Intn(min(int(seq), 2))) // late duplicate
			}
			next[id] = seq + 1
			data := make([]byte, (1+rng.Intn(3))*segment.BlockSamples)
			for i := range data {
				if rng.Intn(3) == 0 {
					data[i] = loudBytes[rng.Intn(len(loudBytes))]
				} else {
					data[i] = byte(rng.Intn(256))
				}
			}
			ops = append(ops, op{kind: opDeliver, id: id, seq: seq, data: data, now: now})
		case r < 50:
			ops = append(ops, op{kind: opShed, id: id, shed: rng.Intn(2) == 0})
		default:
			now += int64(segment.BlockDuration)
			ops = append(ops, op{kind: opTick, now: now})
		}
	}
	return ops
}

// TestTickDigestPinned folds every block Tick returns, and how many
// streams it mixed, over pinnedSchedule into one FNV-1a word. The word
// was recorded from the mixer that scanned every stream, summed all of
// them in int32 and re-encoded each sample by a bit scan: a faster
// mixer must produce the same bytes.
func TestTickDigestPinned(t *testing.T) {
	const want = 0xa0dc5905baa59e7c
	m := New(Config{})
	h, ticks, mixes := uint64(fnvOffset), 0, [4]int{}
	for _, o := range pinnedSchedule() {
		switch o.kind {
		case opDeliver:
			o.deliver(m)
		case opShed:
			m.SetShed(o.id, o.shed)
		case opTick:
			blk, mixed := m.Tick(o.now)
			h = fnvFold(fnvFold(h, blk...), byte(mixed))
			ticks++
			mixes[min(mixed, 3)]++
		}
	}
	// The schedule must reach every case the mixer distinguishes.
	for n, c := range mixes {
		if c == 0 {
			t.Errorf("no tick mixed %d streams (%v over %d ticks)", n, mixes, ticks)
		}
	}
	if h != want {
		t.Errorf("digest %#016x over %d ticks (mixed 0/1/2/3+: %v), want %#016x", h, ticks, mixes, uint64(want))
	}
}

package mixer

import (
	"slices"
	"testing"
	"time"

	"repro/internal/clawback"
	"repro/internal/mulaw"
	"repro/internal/segment"
)

// testPool backs the wires tests feed to Deliver; pooled storage means
// the tests also exercise the retain-per-queued-block discipline (a
// refcount bug would recycle storage under a queued block and corrupt
// the mixed audio).
var testPool = segment.NewWirePool()

// seg builds an audio wire of nblocks constant-amplitude blocks.
func seg(seq uint32, amp int16, nblocks int) segment.Wire {
	blocks := make([][]byte, nblocks)
	for i := range blocks {
		b := make([]byte, segment.BlockSamples)
		for j := range b {
			b[j] = mulaw.Encode(amp)
		}
		blocks[i] = b
	}
	return testPool.Encode(segment.NewAudio(seq, 0, blocks))
}

func TestSilenceWithNoStreams(t *testing.T) {
	m := New(Config{})
	blk, mixed := m.Tick(0)
	if mixed != 0 {
		t.Fatalf("mixed %d streams", mixed)
	}
	if mulaw.Energy(blk) != 0 {
		t.Fatal("no-stream tick is not silent")
	}
}

func TestSingleStreamPassesThrough(t *testing.T) {
	m := New(Config{})
	m.Deliver(1, seg(0, 8000, 2))
	blk, mixed := m.Tick(0)
	if mixed != 1 {
		t.Fatalf("mixed = %d", mixed)
	}
	got := mulaw.Decode(blk[0])
	want := mulaw.Decode(mulaw.Encode(8000))
	if got < want-want/8 || got > want+want/8 {
		t.Fatalf("mixed sample %d, want ≈%d", got, want)
	}
}

func TestTwoStreamsSum(t *testing.T) {
	m := New(Config{})
	m.Deliver(1, seg(0, 5000, 2))
	m.Deliver(2, seg(0, 3000, 2))
	blk, mixed := m.Tick(0)
	if mixed != 2 {
		t.Fatalf("mixed = %d", mixed)
	}
	got := int32(mulaw.Decode(blk[0]))
	if got < 7000 || got > 9000 {
		t.Fatalf("sum = %d, want ≈8000", got)
	}
}

func TestManyStreamsNoLimit(t *testing.T) {
	// "No limit is placed on the number of incoming streams that can
	// be mixed."
	m := New(Config{})
	for id := uint32(0); id < 40; id++ {
		m.Deliver(id, seg(0, 100, 2))
	}
	_, mixed := m.Tick(0)
	if mixed != 40 {
		t.Fatalf("mixed %d of 40 streams", mixed)
	}
}

func TestMixSaturatesInsteadOfWrapping(t *testing.T) {
	m := New(Config{})
	for id := uint32(0); id < 4; id++ {
		m.Deliver(id, seg(0, 20000, 2))
	}
	blk, _ := m.Tick(0)
	got := int32(mulaw.Decode(blk[0]))
	if got < 30000 {
		t.Fatalf("saturating mix gave %d, want near +32124", got)
	}
}

func TestEmptyBufferDeactivatesStream(t *testing.T) {
	m := New(Config{})
	m.Deliver(1, seg(0, 100, 1))
	m.Tick(0) // consumes the only block
	if m.ActiveStreams() != 1 {
		t.Fatal("stream deactivated too early")
	}
	m.Tick(0) // empty pop: deactivate
	if m.ActiveStreams() != 0 {
		t.Fatal("stream not deactivated on empty buffer")
	}
	// Arrival re-creates the buffer and mixing resumes.
	m.Deliver(1, seg(1, 100, 1))
	if m.ActiveStreams() != 1 {
		t.Fatal("stream not reactivated on arrival")
	}
	if m.Stats(1).Reactivations != 1 {
		t.Fatalf("Reactivations = %d", m.Stats(1).Reactivations)
	}
}

func TestDeactivationReleasesPool(t *testing.T) {
	// 34 streams of 30 two-block segments offer 2 040 blocks, each
	// stream within its 60-block limit: the 4 s pool takes 2 000 and
	// refuses the rest. Playing every stream out and deactivating it
	// gives the whole pool back.
	m := New(Config{})
	for id := uint32(0); id < 34; id++ {
		for seq := uint32(0); seq < 30; seq++ {
			m.Deliver(id, seg(seq, 100, 2))
		}
	}
	if m.pool.Used() != clawback.DefaultPoolBlocks || m.pool.Exhausted != 40 {
		t.Fatalf("pool used %d, exhausted %d; want %d, 40", m.pool.Used(), m.pool.Exhausted, clawback.DefaultPoolBlocks)
	}
	for m.ActiveStreams() > 0 {
		m.Tick(0)
	}
	if m.pool.Used() != 0 {
		t.Fatalf("pool used %d after deactivation", m.pool.Used())
	}
}

func TestSequenceGapConcealed(t *testing.T) {
	m := New(Config{})
	m.Deliver(1, seg(0, 8000, 2))
	m.Deliver(1, seg(2, 8000, 2)) // seq 1 lost: one segment = 2 blocks
	st := m.Stats(1)
	if st.LostSegments != 1 {
		t.Fatalf("LostSegments = %d", st.LostSegments)
	}
	if st.Concealed != 2 {
		t.Fatalf("Concealed = %d, want 2 replayed blocks", st.Concealed)
	}
	// The concealed blocks replay the last block: audio continues at
	// the same amplitude with no silent gap.
	for i := 0; i < 6; i++ {
		blk, mixed := m.Tick(0)
		if mixed != 1 {
			t.Fatalf("tick %d: mixed=%d (gap audible)", i, mixed)
		}
		if e := mulaw.Energy(blk); e == 0 {
			t.Fatalf("tick %d: silence in concealed stream", i)
		}
	}
}

func TestConcealmentBounded(t *testing.T) {
	// A huge gap must not flood the buffer with replayed blocks.
	m := New(Config{})
	m.Deliver(1, seg(0, 8000, 2))
	m.Deliver(1, seg(100, 8000, 2)) // 99 segments lost
	st := m.Stats(1)
	if st.Concealed != MaxConcealBlocks || MaxConcealBlocks != 4 {
		t.Fatalf("Concealed = %d, want the 4-block bound", st.Concealed)
	}
	if st.LostSegments != 99 {
		t.Fatalf("LostSegments = %d", st.LostSegments)
	}
}

func TestDuplicateOrLateSegmentResynchronises(t *testing.T) {
	m := New(Config{})
	m.Deliver(1, seg(5, 100, 2))
	m.Deliver(1, seg(3, 100, 2)) // out of order / duplicate
	if m.Stats(1).LostSegments != 0 {
		t.Fatal("negative gap counted as loss")
	}
	m.Deliver(1, seg(4, 100, 2)) // continues from the resync point
	if m.Stats(1).LostSegments != 0 {
		t.Fatalf("LostSegments = %d after resync", m.Stats(1).LostSegments)
	}
}

func TestLateDuplicatePayloadDiscarded(t *testing.T) {
	// A late duplicate must not queue its blocks — they would play
	// as repeated audio. Only the first copy's payload survives.
	m := New(Config{})
	m.Deliver(1, seg(0, 8000, 2))
	m.Deliver(1, seg(0, 8000, 2)) // exact duplicate
	st := m.Stats(1)
	if st.LateDuplicates != 1 {
		t.Fatalf("LateDuplicates = %d, want 1", st.LateDuplicates)
	}
	if st.Blocks != 2 {
		t.Fatalf("Blocks = %d: duplicate payload was queued", st.Blocks)
	}
	if st.Clawback.Accepted != 2 {
		t.Fatalf("clawback accepted %d blocks, want 2", st.Clawback.Accepted)
	}
	// The stream still resynchronises past the duplicate.
	m.Deliver(1, seg(1, 8000, 2))
	if st := m.Stats(1); st.LostSegments != 0 || st.Blocks != 4 {
		t.Fatalf("resync broken: %+v", st)
	}
}

func TestReorderedSequenceCounts(t *testing.T) {
	// Arrival order 1,3,2,2: segment 2 is first concealed as lost,
	// then both late copies are thrown away.
	m := New(Config{})
	m.Deliver(1, seg(1, 8000, 2)) // queued, nextSeq=2
	m.Deliver(1, seg(3, 8000, 2)) // gap +1: conceal 2 blocks, queue, nextSeq=4
	m.Deliver(1, seg(2, 8000, 2)) // gap -2: late, dropped, nextSeq=3
	m.Deliver(1, seg(2, 8000, 2)) // gap -1: late again, dropped
	st := m.Stats(1)
	if st.Segments != 4 {
		t.Fatalf("Segments = %d", st.Segments)
	}
	if st.Blocks != 4 {
		t.Fatalf("Blocks = %d, want only segments 1 and 3 queued", st.Blocks)
	}
	if st.LostSegments != 1 || st.Concealed != 2 {
		t.Fatalf("loss accounting: %+v", st)
	}
	if st.LateDuplicates != 2 {
		t.Fatalf("LateDuplicates = %d, want 2", st.LateDuplicates)
	}
	// 2 real + 2 concealed + 2 real blocks are buffered: six ticks of
	// audio, then the buffer runs dry.
	for i := 0; i < 6; i++ {
		if _, mixed := m.Tick(0); mixed != 1 {
			t.Fatalf("tick %d: mixed=%d", i, mixed)
		}
	}
	if _, mixed := m.Tick(0); mixed != 0 {
		t.Fatal("late duplicates queued extra audio")
	}
}

func TestDeliverReleasesWiresWhenPlayedOut(t *testing.T) {
	// Wires delivered with gaps, late duplicates and drops: once every
	// queued block has been mixed out, all pooled storage must be back
	// on the free list — no path may leak or double-release.
	pl := segment.NewWirePool()
	mk := func(seq uint32) segment.Wire {
		return pl.Encode(segment.NewAudio(seq, 0, [][]byte{
			{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		}))
	}
	m := New(Config{})
	m.Deliver(1, mk(0))
	m.Deliver(1, mk(5)) // gap: concealment queues owned copies, not wires
	m.Deliver(1, mk(2)) // late duplicate: released without queueing
	m.Deliver(1, mk(3))
	for i := 0; i < 16; i++ {
		m.Tick(0)
	}
	if pl.FreeLen() != int(pl.News) {
		t.Fatalf("%d of %d wire records returned after playout", pl.FreeLen(), pl.News)
	}
}

func TestShedDiscardsUntilRestored(t *testing.T) {
	m := New(Config{})
	m.Deliver(1, seg(0, 8000, 2))
	if m.ActiveStreams() != 1 {
		t.Fatal("stream not active before shed")
	}
	m.SetShed(1, true)
	if m.ActiveStreams() != 0 {
		t.Fatal("shed did not deactivate the stream")
	}
	m.Deliver(1, seg(1, 8000, 2)) // discarded
	if _, mixed := m.Tick(0); mixed != 0 {
		t.Fatal("shed stream still mixing")
	}
	st := m.Stats(1)
	if st.Blocks != 2 {
		t.Fatalf("shed delivery queued blocks: %d", st.Blocks)
	}
	m.SetShed(1, false)
	m.Deliver(1, seg(2, 8000, 2)) // reactivates adaptively
	if _, mixed := m.Tick(0); mixed != 1 {
		t.Fatal("restored stream not mixing")
	}
}

func TestFaultPathsReleaseWires(t *testing.T) {
	// The injected-fault drop paths the mixer owns — duplicate delivery
	// of the same wire (what an atm duplicate fault produces: two
	// references, two Deliver calls), shedding with a loaded buffer and
	// deliveries while shed — must all release the wire references they
	// discard (clawback's TestFaultDropReleasesTheWire covers the
	// destination block-corruption drop). Pool
	// accounting is the leak detector: after playout every wire record
	// is back on the free list.
	pl := segment.NewWirePool()
	mk := func(seq uint32) segment.Wire {
		return pl.Encode(segment.NewAudio(seq, 0, [][]byte{
			{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		}))
	}
	m := New(Config{})

	// Duplicate delivery: one wire, two references, second copy is a
	// late duplicate the mixer must release.
	w := mk(0)
	w.Retain(1)
	m.Deliver(1, w)
	m.Deliver(1, w)
	m.Deliver(1, mk(1))
	m.Deliver(1, mk(2))

	// Shed with queued blocks (drained), then deliveries while shed.
	m.SetShed(1, true)
	m.Deliver(1, mk(3))
	m.Deliver(1, mk(4))
	m.SetShed(1, false)
	m.Deliver(1, mk(5))
	for i := 0; i < 16; i++ {
		m.Tick(0)
	}
	if st := m.Stats(1); st.LateDuplicates == 0 {
		t.Fatal("duplicate delivery not detected")
	}
	if pl.FreeLen() != int(pl.News) {
		t.Fatalf("%d of %d wire records returned after fault-path playout", pl.FreeLen(), pl.News)
	}
}

func TestStatsUnknownStream(t *testing.T) {
	m := New(Config{})
	if st := m.Stats(42); st.Segments != 0 {
		t.Fatal("stats for unknown stream not zero")
	}
}

func TestPerStreamClawbackIsolation(t *testing.T) {
	// One stream's jitter buffer state must not affect another's.
	m := New(Config{})
	for i := 0; i < 40; i++ {
		m.Deliver(1, seg(uint32(i), 100, 2)) // floods stream 1 past its 60-block limit
	}
	m.Deliver(2, seg(0, 100, 2))
	s1, s2 := m.Stats(1), m.Stats(2)
	if s1.Clawback.LimitDrops != 20 {
		t.Fatalf("stream 1 LimitDrops = %d, want 20 of 80 blocks over its 60-block limit", s1.Clawback.LimitDrops)
	}
	if s2.Clawback.LimitDrops != 0 || s2.Clawback.Accepted != 2 {
		t.Fatalf("stream 2 affected by stream 1: %+v", s2.Clawback)
	}
}

func TestMixedCountTracksConsumption(t *testing.T) {
	m := New(Config{})
	m.Deliver(1, seg(0, 100, 3))
	m.Deliver(2, seg(0, 100, 1))
	if _, mixed := m.Tick(0); mixed != 2 {
		t.Fatal("tick 1")
	}
	if _, mixed := m.Tick(0); mixed != 1 { // stream 2 empty now
		t.Fatal("tick 2")
	}
	if m.Ticks(0) != 2 {
		t.Fatalf("Ticks = %d", m.Ticks(0))
	}
}

func TestParkedGridCountsTicksAsTheirInstantsPass(t *testing.T) {
	// Two ticks run, then the board parks at 6 ms: Ticks and Skipped count
	// each skipped tick from its instant on. Parking again at 10 ms counts
	// the two before it, and the tick at 14 ms the two after.
	const bd = int64(segment.BlockDuration)
	m := New(Config{})
	m.Tick(bd)
	m.Tick(2 * bd)
	m.Park(3 * bd)
	check := func(at int64, ticks, skippedBy uint64) {
		t.Helper()
		if got, skipped := m.Ticks(at), m.Skipped(at); got != ticks || skipped != skippedBy {
			t.Fatalf("at %d: Ticks = %d, Skipped = %d; want %d, %d", at, got, skipped, ticks, skippedBy)
		}
	}
	check(3*bd-1, 2, 0)
	check(3*bd, 3, 1)
	check(3*bd+bd/2, 3, 1)
	check(5*bd-1, 4, 2)
	m.Park(5 * bd)
	check(5*bd-1, 4, 2)
	check(6*bd, 6, 4)
	if !m.Parked() {
		t.Fatal("grid not parked")
	}
	m.Tick(7 * bd)
	check(100*bd, 7, 4)
	if m.Parked() {
		t.Fatal("a tick left the grid parked")
	}
}

func TestStreamsMixInIDOrderWhateverOrderTheyArrivedIn(t *testing.T) {
	// A tick mixes the streams in m.playing, in its order, and keeps
	// every one that had a block to play.
	m := New(Config{})
	var order []uint32
	mix := func() {
		m.Tick(0)
		for _, s := range m.playing {
			order = append(order, s.id)
		}
	}
	for _, id := range []uint32{30, 10, 40, 20} {
		m.Deliver(id, seg(0, 1000, 2))
	}
	mix()
	m.Deliver(5, seg(0, 1000, 1)) // a newcomer sorts ahead of the rest
	mix()
	if want := []uint32{10, 20, 30, 40, 5, 10, 20, 30, 40}; !slices.Equal(order, want) {
		t.Fatalf("played %v, want %v", order, want)
	}
	// The order is kept, not rebuilt: a tick over empty buffers (the
	// streams deactivate, and stay so) allocates nothing.
	m.Tick(0)
	m.Tick(0)
	if allocs := testing.AllocsPerRun(100, func() { m.Tick(0) }); allocs != 0 {
		t.Errorf("a tick allocates %.1f objects", allocs)
	}
}

func TestPlayoutAllIsTheUnionOfItsStreams(t *testing.T) {
	// Streams 1–3 play two blocks each, each stream at its own latency;
	// stream 4's first block is stamped 0 and is not observed. The
	// mixer's histogram holds what its streams' hold: the counts sum,
	// and so do the latencies. A stream never played reads empty, and
	// reading it stores nothing.
	const bd = int64(segment.BlockDuration)
	const stamp = int64(10 * segment.TimestampTick)
	m := New(Config{})
	for id := uint32(1); id <= 4; id++ {
		op{id: id, data: make([]byte, 2*segment.BlockSamples), now: int64(4-id) * stamp}.deliver(m)
	}
	for tick := int64(10); tick <= 12; tick++ {
		m.Tick(tick * bd)
	}
	n, sum := 0, time.Duration(0)
	for id := uint32(1); id <= 4; id++ {
		h := m.Playout(id)
		n += h.Count()
		sum += h.Mean() * time.Duration(h.Count())
	}
	if all := m.PlayoutAll(); n != 7 || all.Count() != n || all.Mean() != sum/7 {
		t.Fatalf("streams played %d blocks, mean %v; the mixer %d, mean %v; want 7 and equal",
			n, sum/time.Duration(max(n, 1)), all.Count(), all.Mean())
	}
	if h := m.Playout(99); h.Count() != 0 || len(m.streams) != 4 {
		t.Fatalf("a stream never heard reads %d blocks, and the mixer holds %d streams", h.Count(), len(m.streams))
	}
}

// TestRetiredStreamFreesItsStorageOnceDrained runs two mixers in step on
// the same stream, one retired while it plays: the retired one plays
// every queued block as the other does, then gives its clawback
// storage back when the stream runs dry — a straggler then plays, and
// grows it anew, one allocation a straggler where the twin's reuses its
// ring — and its Stats read as the twin's.
func TestRetiredStreamFreesItsStorageOnceDrained(t *testing.T) {
	const runs = 20
	kept, retired := New(Config{}), New(Config{})
	wires := func() []segment.Wire {
		ws := make([]segment.Wire, runs+2)
		for i := range ws {
			ws[i] = seg(uint32(i), int16(100*(i+1)), 2)
		}
		return ws
	}
	kw, rw := wires(), wires()
	kept.Deliver(1, kw[0])
	retired.Deliver(1, rw[0])
	retired.Retire(1)
	for tick := 0; tick < 3; tick++ {
		a, am := kept.Tick(0)
		ka := string(a)
		b, bm := retired.Tick(0)
		if ka != string(b) || am != bm {
			t.Fatalf("tick %d: the retired stream mixed %d (%x), its twin %d (%x)", tick, bm, b, am, ka)
		}
	}
	if kept.ActiveStreams() != 0 || retired.ActiveStreams() != 0 || retired.pool.Used() != 0 {
		t.Fatalf("%d and %d streams play, %d pool blocks held: want both dry", kept.ActiveStreams(), retired.ActiveStreams(), retired.pool.Used())
	}
	straggle := func(m *Mixer, ws []segment.Wire) func() {
		n := 1
		return func() {
			m.Deliver(1, ws[n])
			n++
			for range 3 {
				if _, mixed := m.Tick(0); mixed > 1 {
					t.Fatalf("mixed %d streams", mixed)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(runs, straggle(kept, kw)); allocs != 0 {
		t.Errorf("a straggler on a drained stream allocates %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(runs, straggle(retired, rw)); allocs != 1 {
		t.Errorf("a straggler on a retired stream allocates %.1f objects, want 1 (its ring)", allocs)
	}
	if k, r := kept.Stats(1), retired.Stats(1); k != r || r.Reactivations != runs+1 {
		t.Errorf("retired stream's stats %+v, its twin's %+v (want equal, %d reactivations)", r, k, runs+1)
	}
	retired.Retire(2) // no such stream: nothing to do
}

package clawback

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/segment"
)

func block(v byte) []byte {
	b := make([]byte, segment.BlockSamples)
	for i := range b {
		b[i] = v
	}
	return b
}

func TestEmptyPopInsertsSilence(t *testing.T) {
	b := New(Config{})
	blk, ok := b.Pop()
	if ok || blk != nil {
		t.Fatal("empty buffer returned a block")
	}
	if b.Stats().SilenceInserted != 1 {
		t.Fatalf("SilenceInserted = %d", b.Stats().SilenceInserted)
	}
}

func TestFIFOOrder(t *testing.T) {
	b := New(Config{})
	for i := 0; i < 5; i++ {
		if r := b.Push(block(byte(i))); r != DropNone {
			t.Fatalf("push %d dropped: %v", i, r)
		}
	}
	for i := 0; i < 5; i++ {
		blk, ok := b.Pop()
		if !ok || blk[0] != byte(i) {
			t.Fatalf("pop %d: ok=%v v=%d", i, ok, blk[0])
		}
	}
}

func TestQueueKeepsOrderAndStorageAcrossWrapGrowthAndDrain(t *testing.T) {
	pool := NewPool()
	b := New(Config{Pool: pool})
	blocks := make([][]byte, 64)
	for i := range blocks {
		blocks[i] = block(byte(i))
	}
	next, want := 0, 0
	push := func(k int) {
		for ; k > 0; k-- {
			if r := b.Push(blocks[next%len(blocks)]); r != DropNone {
				t.Fatalf("push %d dropped: %v", next, r)
			}
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			blk, ok := b.Pop()
			if !ok || blk[0] != byte(want%len(blocks)) {
				t.Fatalf("pop %d: ok=%v", want, ok)
			}
			want++
		}
	}
	push(6)
	pop(5) // head near the end of the first ring
	push(5)
	if b.head+b.n <= len(b.ring) {
		t.Fatalf("ring of %d with head %d, n %d: not wrapped", len(b.ring), b.head, b.n)
	}
	push(20) // grows twice while wrapped
	pop(b.Len())
	if b.Len() != 0 || pool.Used() != 0 {
		t.Fatalf("emptied: %d queued, %d pool blocks held", b.Len(), pool.Used())
	}

	// The steady state — a few blocks queued, one in and one out per
	// tick — and a drain followed by a refill touch no new storage.
	push(3)
	if allocs := testing.AllocsPerRun(1000, func() { push(1); pop(1) }); allocs != 0 {
		t.Errorf("a push and a pop allocate %.1f objects at steady state", allocs)
	}
	ring := &b.ring[0]
	b.Drain()
	if b.Len() != 0 || pool.Used() != 0 {
		t.Fatalf("drained: %d queued, %d pool blocks held", b.Len(), pool.Used())
	}
	for i, it := range b.ring {
		if it.Data != nil {
			t.Fatalf("slot %d of a drained ring still holds a block", i)
		}
	}
	want = next
	push(4)
	pop(4)
	if &b.ring[0] != ring {
		t.Error("Drain gave up the queue's storage")
	}
}

func TestBufferRidesHigherAfterUnderrun(t *testing.T) {
	// "When the samples do eventually arrive, the buffer will fill to
	// one block more than it would have done."
	b := New(Config{})
	b.Push(block(1))
	b.Pop()
	b.Pop() // underrun: silence inserted
	// The late block and its successors now queue one deeper.
	b.Push(block(2))
	b.Push(block(3))
	if b.Len() != 2 {
		t.Fatalf("Len = %d after recovery, want 2", b.Len())
	}
}

func TestNoClawAtOrBelowTarget(t *testing.T) {
	// Steady occupancy at the target must never trigger clawback.
	b := New(Config{ClawCount: 10})
	b.Push(block(0))
	b.Push(block(0))
	for i := 0; i < 1000; i++ {
		if r := b.Push(block(0)); r != DropNone {
			t.Fatalf("iteration %d dropped: %v", i, r)
		}
		b.Pop()
	}
	if b.Stats().ClawDrops != 0 {
		t.Fatalf("ClawDrops = %d at target occupancy", b.Stats().ClawDrops)
	}
}

func TestClawRateOneIn4096(t *testing.T) {
	// Occupancy pinned above target: exactly one drop per
	// ClawCount+1 arrivals — the paper's "2ms every 8s, or 1 in 4000".
	b := New(Config{})
	for i := 0; i < 10; i++ {
		b.Push(block(0)) // 20 ms of jitter correction
	}
	// Measure the steady inter-drop interval (the fill itself counts
	// toward the first window, so skip to the second drop).
	var dropAt []int
	for i := 0; len(dropAt) < 2; i++ {
		before := b.Stats().ClawDrops
		b.Push(block(0))
		b.Pop()
		if b.Stats().ClawDrops != before {
			dropAt = append(dropAt, i)
		}
		if i > 3*DefaultClawCount {
			t.Fatal("no two claw drops within three windows")
		}
	}
	if gap := dropAt[1] - dropAt[0]; gap != DefaultClawCount+1 {
		t.Fatalf("inter-drop gap %d pushes, want %d", gap, DefaultClawCount+1)
	}
}

func TestClawAdaptation20msTo4ms(t *testing.T) {
	// E5 in miniature: a buffer holding 20 ms of correction returns
	// to the 4 ms target at 2 ms per 8.192 s — about one minute.
	b := New(Config{})
	for i := 0; i < 10; i++ {
		b.Push(block(0))
	}
	ticks := 0
	for b.Len() > DefaultTargetBlocks {
		b.Push(block(0))
		b.Pop()
		ticks++
		if ticks > 50*60*500 {
			t.Fatal("did not adapt within 50 minutes")
		}
	}
	elapsed := time.Duration(ticks) * segment.BlockDuration
	// 8 claw drops needed (10 -> 2 blocks); ~8 × 8.192 s ≈ 65.5 s.
	if elapsed < 55*time.Second || elapsed > 75*time.Second {
		t.Fatalf("adaptation took %v, want ≈ 65s", elapsed)
	}
}

func TestClawCounterResetsBelowTarget(t *testing.T) {
	// A buffer that regularly returns to its target must not
	// accumulate above-target counts across excursions ("If this
	// correction were faster... unnecessary degradation").
	b := New(Config{ClawCount: 100})
	b.Push(block(0))
	b.Push(block(0))
	for cycle := 0; cycle < 50; cycle++ {
		// Excursion: 60 above-target arrivals, below ClawCount.
		b.Push(block(0)) // occupancy 3
		for i := 0; i < 60; i++ {
			b.Push(block(0))
			b.Pop()
		}
		b.Pop() // back to target
		// A quiet arrival at target resets the window.
		b.Push(block(0))
		b.Pop()
	}
	if d := b.Stats().ClawDrops; d != 0 {
		t.Fatalf("ClawDrops = %d across resetting excursions", d)
	}
}

func TestClockDriftAbsorbed(t *testing.T) {
	// E6 in miniature: source clock 1 in 10⁵ fast means one surplus
	// block per 100000. The 1-in-4096 claw rate exceeds the drift, so
	// occupancy stays bounded near the target.
	b := New(Config{})
	b.Push(block(0))
	b.Push(block(0))
	maxLen := 0
	for i := 1; i <= 1_000_000; i++ {
		b.Push(block(0))
		if i%100_000 != 0 { // drift: skip one pop per 100k
			b.Pop()
		}
		if b.Len() > maxLen {
			maxLen = b.Len()
		}
	}
	if maxLen > DefaultTargetBlocks+3 {
		t.Fatalf("drift let occupancy reach %d blocks", maxLen)
	}
	if b.Len() > DefaultTargetBlocks+2 {
		t.Fatalf("final occupancy %d, want near target", b.Len())
	}
}

func TestLimitDrops(t *testing.T) {
	b := New(Config{LimitBlocks: 5})
	for i := 0; i < 5; i++ {
		if r := b.Push(block(0)); r != DropNone {
			t.Fatalf("push %d: %v", i, r)
		}
	}
	if r := b.Push(block(0)); r != DropLimit {
		t.Fatalf("over-limit push: %v", r)
	}
	if b.Stats().LimitDrops != 1 {
		t.Fatalf("LimitDrops = %d", b.Stats().LimitDrops)
	}
}

func TestDefaultLimitIs120ms(t *testing.T) {
	b := New(Config{})
	for b.Push(block(0)) == DropNone {
	}
	if b.Occupancy() != 120*time.Millisecond {
		t.Fatalf("limit occupancy %v, want 120ms", b.Occupancy())
	}
}

func TestPoolSharedBetweenStreams(t *testing.T) {
	// Two streams share the 4 s pool: 1 200 blocks in one and 800 in
	// the other fill it, and draining one frees room for the other.
	pool := NewPool()
	a := New(Config{Pool: pool, LimitBlocks: DefaultPoolBlocks})
	b := New(Config{Pool: pool, LimitBlocks: DefaultPoolBlocks})
	for i := 0; i < 1200; i++ {
		if r := a.Push(block(0)); r != DropNone {
			t.Fatalf("a push %d: %v", i, r)
		}
	}
	for i := 0; i < DefaultPoolBlocks-1200; i++ {
		if r := b.Push(block(0)); r != DropNone {
			t.Fatalf("b push %d: %v", i, r)
		}
	}
	if r := b.Push(block(0)); r != DropPool {
		t.Fatalf("pool-exhausted push: %v", r)
	}
	if pool.Exhausted != 1 || pool.Used() != DefaultPoolBlocks || pool.Capacity() != 2000 {
		t.Fatalf("pool state used=%d of %d exhausted=%d", pool.Used(), pool.Capacity(), pool.Exhausted)
	}
	// Draining one stream frees capacity for the other.
	a.Drain()
	if pool.Used() != 800 {
		t.Fatalf("pool used %d after drain, want 800", pool.Used())
	}
	if r := b.Push(block(0)); r != DropNone {
		t.Fatalf("push after drain: %v", r)
	}
}

func TestPoolReleasedOnPop(t *testing.T) {
	pool := NewPool()
	b := New(Config{Pool: pool})
	for i := 0; i < 4; i++ {
		b.Push(block(0))
	}
	b.Pop()
	if pool.Used() != 3 {
		t.Fatalf("pool used %d after pop", pool.Used())
	}
}

func TestFaultDropReleasesTheWire(t *testing.T) {
	// Every third block is injected corruption at the destination: it
	// is counted, queues nothing, and gives its wire reference back, so
	// once the rest are popped and released every record is free.
	pl := segment.NewWirePool()
	fault := 0
	b := New(Config{Fault: func() bool { fault++; return fault%3 == 0 }})
	for seq := uint32(0); seq < 9; seq++ {
		w := pl.Encode(segment.NewAudio(seq, 0, [][]byte{block(byte(seq))}))
		want := DropNone
		if seq%3 == 2 {
			want = DropFault
		}
		if r := b.PushItem(Item{Data: w.AudioBlock(0), W: w}); r != want {
			t.Fatalf("push %d: %v, want %v", seq, r, want)
		}
	}
	if st := b.Stats(); st.FaultDrops != 3 || st.Accepted != 6 || b.Len() != 6 {
		t.Fatalf("stats %+v with %d queued, want 3 fault drops and 6 queued", st, b.Len())
	}
	for {
		it, ok := b.PopItem()
		if !ok {
			break
		}
		it.W.Release()
	}
	if pl.FreeLen() != int(pl.News) {
		t.Fatalf("%d of %d wire records returned", pl.FreeLen(), pl.News)
	}
}

func TestMultiRateDropFrequency(t *testing.T) {
	// "if the minimum contents were 10ms, we would be removing a 2ms
	// block every 2000 blocks, or 4 seconds. If the minimum contents
	// were 50ms, then we would remove a 2ms block every 400 blocks."
	cases := []struct {
		blocks int // steady occupancy
		period int // pushes between drops
	}{
		{5, 2000},
		{25, 400},
	}
	for _, c := range cases {
		b := New(Config{MultiRate: true, LimitBlocks: 100})
		for i := 0; i < c.blocks; i++ {
			b.Push(block(0))
		}
		// The fill passes through low occupancies, poisoning the
		// first observation window; measure once drops are flowing.
		budget := int(DefaultLevel/blockSeconds) + 10*c.period
		var drops []int
		for i := 0; len(drops) < 4 && i < budget; i++ {
			before := b.Stats().ClawDrops
			b.Push(block(0))
			if b.Stats().ClawDrops != before {
				drops = append(drops, i)
			}
			b.Pop()
			// Replenish so occupancy stays put after a drop.
			if b.Len() < c.blocks {
				b.Push(block(0))
			}
		}
		if len(drops) < 4 {
			t.Fatalf("occupancy %d: fewer than 4 drops observed", c.blocks)
		}
		period := drops[3] - drops[2]
		// The mixer's pops interleave with arrivals, so the observed
		// minimum sits within one block of the nominal occupancy; the
		// period lands between level/(N·bs) and level/((N-1)·bs).
		lo, hi := c.period*3/4, c.period*13/10
		if period < lo || period > hi {
			t.Fatalf("occupancy %d blocks: drop period %d pushes, want ≈%d (accept %d..%d)",
				c.blocks, period, c.period, lo, hi)
		}
	}
}

func TestMultiRateExponentialDecayHalfLife(t *testing.T) {
	// "The time to halve the delay when the jitter source is removed
	// is roughly 0.7 times the level... about 14 seconds."
	b := New(Config{MultiRate: true})
	for i := 0; i < 50; i++ { // 100 ms of correction
		b.Push(block(0))
	}
	// The fill passes through low occupancies, so the first window's
	// minimum is small; run until the first drop locks the window on
	// the high occupancy, then measure the steady decay.
	for b.Stats().ClawDrops == 0 {
		b.Push(block(0))
		b.Pop()
	}
	start := b.Len()
	ticks := 0
	for b.Len() > start/2 {
		b.Push(block(0))
		b.Pop()
		ticks++
		if ticks > 500*60 {
			t.Fatal("no halving within a minute")
		}
	}
	elapsed := time.Duration(ticks) * segment.BlockDuration
	if elapsed < 9*time.Second || elapsed > 20*time.Second {
		t.Fatalf("half-life %v, want ≈14s", elapsed)
	}
}

func TestMultiRateRecoversAfterEmpty(t *testing.T) {
	// After the buffer empties (running minimum 0), the observation
	// window must eventually reset so clawback resumes.
	b := New(Config{MultiRate: true})
	b.Pop() // minimum touches zero
	for i := 0; i < 25; i++ {
		b.Push(block(0)) // 50 ms of correction
	}
	dropped := false
	for i := 0; i < 30_000; i++ { // window at level 20 = 10 000 blocks
		if r := b.Push(block(0)); r == DropClaw {
			dropped = true
			break
		}
		b.Pop()
	}
	if !dropped {
		t.Fatal("multi-rate clawback never resumed after an empty event")
	}
}

func TestDropReasonString(t *testing.T) {
	for r, want := range map[DropReason]string{
		DropNone: "accepted", DropClaw: "clawback",
		DropLimit: "limit", DropPool: "pool", DropReason(9): "unknown",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", r, r.String())
		}
	}
}

func TestQuickOccupancyNeverExceedsLimit(t *testing.T) {
	f := func(ops []bool, limit uint8) bool {
		l := int(limit%20) + 1
		b := New(Config{LimitBlocks: l})
		for _, push := range ops {
			if push {
				b.Push(block(0))
			} else {
				b.Pop()
			}
			if b.Len() > l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStatsConservation(t *testing.T) {
	// Accepted = Popped + Len: no block is lost or duplicated.
	f := func(ops []byte) bool {
		// Another stream holds all but 20 blocks of the pool, so this
		// one meets both its limit and the pool's.
		pool := NewPool()
		other := New(Config{Pool: pool, LimitBlocks: DefaultPoolBlocks})
		for other.Len() < DefaultPoolBlocks-20 {
			other.Push(nil)
		}
		b := New(Config{Pool: pool, LimitBlocks: 30})
		for _, op := range ops {
			if op%3 == 0 {
				b.Pop()
			} else {
				b.Push(block(op))
			}
		}
		s := b.Stats()
		if s.Accepted != s.Popped+uint64(b.Len()) {
			return false
		}
		if s.Pushed != s.Accepted+s.ClawDrops+s.LimitDrops+s.PoolDrops {
			return false
		}
		return pool.Used() == other.Len()+b.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

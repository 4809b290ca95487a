// Package clawback implements the clawback buffers of paper §3.7.2:
// per-stream jitter buffers placed as close to the destination as
// possible, which grow on demand to absorb jitter and then *claw
// back* the added delay at a slow, safe rate once conditions improve
// — all from purely local observation (principle 8), with a single
// parameter (principle 7), no synchronised clocks, and no end-to-end
// cooperation.
//
// Mechanism, exactly as the paper describes:
//
//   - The mixer takes one 2 ms block from the buffer every 2 ms. An
//     empty buffer contributes 2 ms of silence, after which the buffer
//     rides one block higher — jitter absorbed.
//   - Every time a block is added, the occupancy is checked against a
//     lower target (default 4 ms). Above target, a counter increments;
//     when it exceeds ClawCount (4096 ≈ 8 s) the incoming block is
//     dropped — the Clawback Rate of 1 block per 8 s, or 1 in 4000,
//     which also covers quartz clock drift of 1 in 10⁵.
//   - Blocks arriving when the buffer is at its limit (120 ms) or when
//     the shared pool (4 s across all streams) is exhausted are
//     dropped and the condition reported.
//
// The multi-rate variant removes a block whenever
// (minimum occupancy in seconds) × (blocks since last reset) exceeds a
// level expressed in block·seconds (20 for Pandora's environment),
// giving exponential decay of the jitter-correction delay with
// half-life ≈ 0.7 × level.
package clawback

import (
	"time"

	"repro/internal/obs"
	"repro/internal/segment"
)

// Defaults from the paper.
const (
	// DefaultTargetBlocks is the lower target: 4 ms = 2 blocks.
	DefaultTargetBlocks = 2
	// DefaultClawCount is the above-target count that triggers a
	// drop: 4096 blocks ≈ 8 s.
	DefaultClawCount = 4096
	// DefaultLimitBlocks caps one stream's buffering at 120 ms.
	DefaultLimitBlocks = 60
	// DefaultPoolBlocks is the shared pool: 4 s of 2 ms blocks.
	DefaultPoolBlocks = 2000
	// DefaultLevel is the multi-rate level in block·seconds.
	DefaultLevel = 20.0
)

// blockSeconds is the audio time one queued block represents.
const blockSeconds = float64(segment.BlockDuration) / float64(time.Second)

// DropReason classifies why Push rejected a block.
type DropReason int

const (
	// DropNone: the block was accepted.
	DropNone DropReason = iota
	// DropClaw: the clawback mechanism removed it to reduce delay.
	DropClaw
	// DropLimit: the per-stream limit (120 ms) was exceeded.
	DropLimit
	// DropPool: the shared pool was exhausted.
	DropPool
	// DropFault: an injected fault (faultinject block corruption)
	// discarded the block at the destination.
	DropFault
)

func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "accepted"
	case DropClaw:
		return "clawback"
	case DropLimit:
		return "limit"
	case DropPool:
		return "pool"
	case DropFault:
		return "fault"
	}
	return "unknown"
}

// Pool is the shared memory pool for all clawback buffers at one
// destination ("we have a total of four seconds of clawback buffering
// shared between all active streams").
type Pool struct {
	capacity int
	used     int
	// Exhausted counts arrivals refused because the pool was full.
	Exhausted uint64
}

// NewPool returns a pool holding capacity blocks; capacity <= 0 gives
// the paper's 4 s default.
func NewPool(capacity int) *Pool {
	if capacity <= 0 {
		capacity = DefaultPoolBlocks
	}
	return &Pool{capacity: capacity}
}

// Used returns the number of blocks currently held across all buffers.
func (p *Pool) Used() int { return p.used }

// Capacity returns the pool size in blocks.
func (p *Pool) Capacity() int { return p.capacity }

func (p *Pool) take() bool {
	if p.used >= p.capacity {
		p.Exhausted++
		return false
	}
	p.used++
	return true
}

func (p *Pool) give() { p.used-- }

// Config parameterises a Buffer. The zero value selects the paper's
// defaults for every field.
type Config struct {
	// TargetBlocks is the lower occupancy target in blocks (default 2
	// = 4 ms).
	TargetBlocks int
	// ClawCount is the consecutive above-target count that triggers a
	// clawback drop (default 4096 ≈ 8 s).
	ClawCount int
	// LimitBlocks is the per-stream cap (default 60 = 120 ms).
	LimitBlocks int
	// Pool, if non-nil, bounds total memory across buffers.
	Pool *Pool
	// MultiRate selects the multi-rate clawback (§3.7.2 last part).
	MultiRate bool
	// Level is the multi-rate product threshold in block·seconds
	// (default 20).
	Level float64
	// NoReset is the A3 ablation: the above-target counter never
	// resets when the buffer returns to its target, so the "faster"
	// correction the paper warns about fires during occasional short
	// intervals of low jitter and degrades the stream unnecessarily.
	NoReset bool
	// Fault, if non-nil, is a fault-injection hook consulted on every
	// arriving block; returning true discards the block as injected
	// corruption at the destination codec (DropFault).
	Fault func() bool
	// Obs, if non-nil, registers the buffer's counters (labelled with
	// Owner) and traces drops. A nil registry costs nothing.
	Obs *obs.Registry
	// Owner identifies this buffer in metrics and traces, e.g.
	// "bob/1001" for stream 1001 arriving at box bob.
	Owner string
}

func (c Config) withDefaults() Config {
	if c.TargetBlocks <= 0 {
		c.TargetBlocks = DefaultTargetBlocks
	}
	if c.ClawCount <= 0 {
		c.ClawCount = DefaultClawCount
	}
	if c.LimitBlocks <= 0 {
		c.LimitBlocks = DefaultLimitBlocks
	}
	if c.Level <= 0 {
		c.Level = DefaultLevel
	}
	return c
}

// Stats reports the counters the buffer accumulates ("the process
// reports this condition so that the cause can be investigated").
// A registry attached to the buffer reads them from its row.
type Stats struct {
	Pushed          uint64 // blocks offered
	Accepted        uint64 // blocks queued
	Popped          uint64 // blocks taken by the mixer
	SilenceInserted uint64 // empty pops (2 ms of zero samples each)
	ClawDrops       uint64 // blocks removed by the clawback mechanism
	LimitDrops      uint64 // blocks over the per-stream limit
	PoolDrops       uint64 // blocks refused by the shared pool
	FaultDrops      uint64 // blocks discarded by an injected fault
}

// Item is one queued 2 ms block plus the source timestamp it was
// captured at (nanoseconds of stream time), which rides along so the
// destination can measure end-to-end delay.
type Item struct {
	Data  []byte
	Stamp int64
	// W, if non-zero, is the wire whose storage Data aliases: the
	// queue holds one reference per item instead of copying the
	// samples. PushItem releases it when a block is dropped; consumers
	// release it after using a popped item; Drain releases the queue's
	// remaining references.
	W segment.Wire
}

// Buffer is one stream's clawback buffer. It is a plain data
// structure driven by the destination's 2 ms mixing tick: Push on
// block arrival, Pop every 2 ms. Not safe for concurrent use (in
// Pandora each buffer lives inside one Occam process).
type Buffer struct {
	cfg Config
	// The queue is a power-of-two ring: a stream in steady state holds
	// two to four blocks and turns one over every 2 ms, all in the same
	// storage, which Drain keeps.
	ring []Item
	head int // position of the oldest queued block
	n    int // queued blocks

	aboveTarget int // consecutive above-target arrivals (single-rate)

	minBlocks  int // minimum occupancy since last reset (multi-rate)
	sinceReset int // blocks accepted since last reset (multi-rate)

	stats  Stats // what the buffer's registry row reads
	trace  *obs.Tracer
	source string
}

// New returns a buffer with the given configuration.
func New(cfg Config) *Buffer {
	cfg = cfg.withDefaults()
	owner := cfg.Owner
	if owner == "" {
		owner = "clawback"
	}
	b := &Buffer{
		cfg:    cfg,
		trace:  cfg.Obs.Tracer(),
		source: "clawback." + owner,
	}
	bufferTable.Register(cfg.Obs, b, obs.L("stream", owner))
	return b
}

// bufferTable is a buffer's counters.
var bufferTable = obs.NewTable(
	obs.CounterOf("clawback_pushed_total", func(b *Buffer) uint64 { return b.stats.Pushed }),
	obs.CounterOf("clawback_accepted_total", func(b *Buffer) uint64 { return b.stats.Accepted }),
	obs.CounterOf("clawback_popped_total", func(b *Buffer) uint64 { return b.stats.Popped }),
	obs.CounterOf("clawback_silence_total", func(b *Buffer) uint64 { return b.stats.SilenceInserted }),
	obs.CounterOf("clawback_claw_drops_total", func(b *Buffer) uint64 { return b.stats.ClawDrops }),
	obs.CounterOf("clawback_limit_drops_total", func(b *Buffer) uint64 { return b.stats.LimitDrops }),
	obs.CounterOf("clawback_pool_drops_total", func(b *Buffer) uint64 { return b.stats.PoolDrops }),
	obs.CounterOf("clawback_fault_drops_total", func(b *Buffer) uint64 { return b.stats.FaultDrops }),
)

// Config returns the effective configuration.
func (b *Buffer) Config() Config { return b.cfg }

// Stats returns a copy of the accumulated counters.
func (b *Buffer) Stats() Stats { return b.stats }

// Len returns the current occupancy in blocks.
func (b *Buffer) Len() int { return b.n }

// Occupancy returns the current occupancy as audio time — the jitter
// correction delay this stream is experiencing.
func (b *Buffer) Occupancy() time.Duration {
	return time.Duration(b.n) * segment.BlockDuration
}

// Push offers an arriving 2 ms block to the buffer. It returns the
// reason the block was dropped, or DropNone if it was queued.
func (b *Buffer) Push(blk []byte) DropReason { return b.PushItem(Item{Data: blk}) }

// PushItem offers an arriving block with its source timestamp.
func (b *Buffer) PushItem(it Item) DropReason {
	b.stats.Pushed++
	if b.cfg.Fault != nil && b.cfg.Fault() {
		// Injected corruption at the destination: the block is thrown
		// away before it can influence the clawback state (§3.8).
		b.stats.FaultDrops++
		b.trace.Emit(obs.EvFault, b.source, 0, DropFault.String())
		it.W.Release()
		return DropFault
	}
	if b.n >= b.cfg.LimitBlocks {
		// "we throw away samples if the buffer is above its limit
		// when they arrive."
		b.stats.LimitDrops++
		b.trace.Emit(obs.EvDrop, b.source, 0, DropLimit.String())
		it.W.Release()
		return DropLimit
	}
	if b.cfg.MultiRate {
		if b.pushMultiRate() {
			b.stats.ClawDrops++
			b.trace.Emit(obs.EvDrop, b.source, 0, DropClaw.String())
			it.W.Release()
			return DropClaw
		}
	} else {
		if b.pushSingleRate() {
			b.stats.ClawDrops++
			b.trace.Emit(obs.EvDrop, b.source, 0, DropClaw.String())
			it.W.Release()
			return DropClaw
		}
	}
	if b.cfg.Pool != nil && !b.cfg.Pool.take() {
		b.stats.PoolDrops++
		b.trace.Emit(obs.EvDrop, b.source, 0, DropPool.String())
		it.W.Release()
		return DropPool
	}
	if b.n == len(b.ring) {
		b.grow()
	}
	b.ring[(b.head+b.n)&(len(b.ring)-1)] = it
	b.n++
	b.stats.Accepted++
	return DropNone
}

// grow doubles a full ring, unwrapping it to start at position zero.
func (b *Buffer) grow() {
	ring := make([]Item, max(2*len(b.ring), 8))
	k := copy(ring, b.ring[b.head:])
	copy(ring[k:], b.ring[:b.head])
	b.ring, b.head = ring, 0
}

// pushSingleRate runs the fixed-rate clawback check and reports
// whether the incoming block should be dropped.
func (b *Buffer) pushSingleRate() bool {
	if b.n > b.cfg.TargetBlocks {
		b.aboveTarget++
		if b.aboveTarget > b.cfg.ClawCount {
			b.aboveTarget = 0
			return true
		}
	} else if !b.cfg.NoReset {
		// The buffer has come close to its target: the delay is not
		// excessive, so restart the observation window.
		b.aboveTarget = 0
	}
	return false
}

// pushMultiRate runs the product check: remove a block and reset the
// counts whenever (minimum contents) × (blocks since last reset)
// exceeds the configured level in block·seconds. The minimum is
// sampled at block arrival, before the incoming block is queued.
//
// One refinement over the paper's sketch: if the running minimum
// touches zero (the buffer emptied — maximum jitter), the product can
// never reach the level and the counts would otherwise never reset,
// leaving the mechanism dead after conditions improve. We therefore
// restart the observation window, without removing a block, after
// level/blockSeconds arrivals — the instant at which even a 1-block
// minimum would have triggered a removal. The cost is an onset lag of
// at most one window after a deep jitter event before the exponential
// decay locks on; the steady-state decay itself matches the paper
// (half-life ≈ 0.7 × level).
func (b *Buffer) pushMultiRate() bool {
	if b.n < b.minBlocks {
		b.minBlocks = b.n
	}
	b.sinceReset++
	product := float64(b.minBlocks) * blockSeconds * float64(b.sinceReset)
	if product >= b.cfg.Level {
		b.sinceReset = 0
		b.minBlocks = b.n
		return true
	}
	if float64(b.sinceReset) >= b.cfg.Level/blockSeconds {
		b.sinceReset = 0
		b.minBlocks = b.n
	}
	return false
}

// Pop takes the next 2 ms block for mixing. ok is false when the
// buffer is empty, in which case the mixer contributes silence and
// the stream gains one block of jitter protection.
func (b *Buffer) Pop() (blk []byte, ok bool) {
	it, ok := b.PopItem()
	return it.Data, ok
}

// PopItem takes the next block with its source timestamp.
func (b *Buffer) PopItem() (it Item, ok bool) {
	if b.n == 0 {
		b.stats.SilenceInserted++
		return Item{}, false
	}
	it = b.take()
	b.stats.Popped++
	return it, true
}

// take removes and returns the oldest queued block, giving its pool
// slot back. The queue must not be empty.
func (b *Buffer) take() Item {
	it := b.ring[b.head]
	b.ring[b.head] = Item{}
	b.head = (b.head + 1) & (len(b.ring) - 1)
	b.n--
	if b.cfg.Pool != nil {
		b.cfg.Pool.give()
	}
	return it
}

// Drain releases every queued block back to the pool (stream
// deactivation: "the time saved when a clawback buffer is found to be
// empty is used to deactivate the stream, removing the clawback
// buffer altogether").
func (b *Buffer) Drain() {
	for b.n > 0 {
		b.take().W.Release()
	}
}

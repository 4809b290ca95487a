// Package allocator implements the server transputer's segment buffer
// allocator of paper §3.4 (figure 3.4): a shared pool of segment
// buffers whose reference counts track how many processes hold each
// buffer. Input handlers obtain empty buffers in advance, fill them,
// and pass buffer *indices* through the rest of the system — data is
// copied "once into memory, and once out for each output device".
//
// In the paper the allocator is an Occam process; here it is passive
// (see Pool) and keeps that process's defining behaviour: "If there
// are no buffers available, then the allocator will not listen for any
// requests, and the requesting processes will be descheduled by the
// usual channel synchronisation mechanism until the allocator is ready
// to receive again. The allocator reports this (serious) fault on its
// report channel so that it can be logged." A request is GetInto, which
// has the granting Release write the buffer where the requester said —
// so a stackless requester (occam.GoStep) can be descheduled too — or
// Get, its form for a caller with a stack to return the buffer on.
//
// Reference-count protocol (§3.4): a process must inform the
// allocator when it finishes with a buffer without passing it on
// (decrement) and when it sends a descriptor to more than one other
// process (increment). Passing to exactly one process needs no
// traffic.
//
// A buffer is built on first use: the pool hands buffers out as they
// are asked for (§3.4) and makes one only when a grant finds none
// recycled, so a pool of 64 that never has more than three in hand
// holds three. The grant order is an eagerly built pool's exactly, and
// its size, free count and reports read as that pool's would.
package allocator

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
)

// Buffer is one shared segment buffer.
type Buffer struct {
	// Index is the buffer's identity within the pool — what actually
	// travels between processes on the transputer.
	Index int
	// Payload is an in-place wire view over the buffer's own storage;
	// set it with SetPayload. Processes holding the buffer read header
	// fields and sample data directly from this view — the buffer IS
	// the segment's memory while it is in the server, and the pool's
	// reference counts govern when that memory is reused.
	Payload segment.Wire
	// Stream is the Pandora stream number the segment belongs to
	// ("streams within pandora pass the stream number in an extra
	// field preceding the segment header").
	Stream uint32

	// storage is the buffer's backing memory, reused across grants.
	storage []byte
}

// SetPayload copies the wire bytes of src into the buffer's storage —
// the single copy "into memory" an input handler performs (§3.4) —
// and points Payload at the in-place view. The source wire may be
// released afterwards.
func (b *Buffer) SetPayload(src []byte) {
	if cap(b.storage) < len(src) {
		b.storage = make([]byte, len(src))
	}
	b.storage = b.storage[:len(src)]
	copy(b.storage, src)
	b.Payload = segment.WireOver(b.storage)
}

// Report is an allocator fault or status report.
type Report struct {
	Starved bool // a request arrived while no buffers were free
	Free    int
	Total   int
}

func (r Report) String() string {
	if r.Starved {
		return fmt.Sprintf("allocator: STARVED (%d/%d free)", r.Free, r.Total)
	}
	return fmt.Sprintf("allocator: %d/%d free", r.Free, r.Total)
}

// refChange adjusts a buffer's reference count by Delta.
type refChange struct {
	Index int
	Delta int
}

// waiter is one process blocked in GetInto while the pool is dry: the
// signal it sleeps on, and where the granting Release puts the buffer
// before raising it.
type waiter struct {
	sig *occam.Signal
	dst **Buffer
}

// Pool is the allocator handle. Create with New, then call
// Get or GetInto, Retain and Release from Occam processes.
//
// The allocator is passive: grants and reference-count changes are
// zero-virtual-time bookkeeping, so they run inline in the calling
// process instead of rendezvousing with an allocator process. The
// paper's defining starvation behaviour is kept exactly — "If there
// are no buffers available ... the requesting processes will be
// descheduled" — by parking requesters on signals in FIFO order; the
// Release that frees a buffer grants it to the longest-waiting
// requester and wakes it. Only the report protocol (command/report
// channels, like all other Pandora processes) keeps a process, and
// only for a pool that was given a report channel.
type Pool struct {
	rt *occam.Runtime
	// size is how many buffers the pool may hold; bufs and refs cover
	// the len(bufs) made so far, by index, and free holds the indices
	// released back, the last released granted first.
	size    int
	bufs    []*Buffer
	refs    []int
	free    []int
	cmd     *occam.Chan[struct{}] // report request
	reports *occam.Chan[Report]

	// waiters are processes descheduled in GetInto, FIFO. sigFree
	// recycles their signals.
	waiters []waiter
	sigFree []*occam.Signal

	wasStarved  bool
	starvations uint64
	grants      uint64
	trace       *obs.Tracer
	source      string
}

// New creates a pool of n buffers, none of them made yet. With a
// report channel it also starts the report process on node; with nil
// nobody collects reports, so there is no process and RequestReport is
// a no-op.
func New(rt *occam.Runtime, node *occam.Node, n int, reports *occam.Chan[Report]) *Pool {
	if n <= 0 {
		panic("allocator: pool size must be positive")
	}
	pl := &Pool{rt: rt, size: n, reports: reports}
	if reports != nil {
		pl.cmd = occam.NewChan[struct{}](rt, "alloc.cmd")
		rt.Go("allocator", node, occam.High, pl.run)
	}
	return pl
}

// Observe registers the pool's row on reg, labelled with owner (the box
// name), and traces starvation episodes.
func (pl *Pool) Observe(reg *obs.Registry, owner string) {
	poolTable.Register(reg, pl, obs.L("box", owner))
	pl.trace = reg.Tracer()
	pl.source = owner + ".allocator"
}

// poolTable is a pool's grant and starvation counters and its free and
// total buffer gauges.
var poolTable = obs.NewTable(
	obs.CounterOf("allocator_grants_total", func(pl *Pool) uint64 { return pl.grants }),
	obs.CounterOf("allocator_starvations_total", func(pl *Pool) uint64 { return pl.starvations }),
	obs.GaugeOf("allocator_free", func(pl *Pool) float64 { return float64(pl.available()) }),
	obs.GaugeOf("allocator_total", func(pl *Pool) float64 { return float64(pl.size) }),
)

// run is the report process: the allocator's command/report channel
// attachment, kept as a process so a report request never blocks the
// requester on the report collector.
func (pl *Pool) run(p *occam.Proc) {
	for {
		pl.cmd.Recv(p)
		pl.reports.Send(p, Report{Free: pl.available(), Total: pl.size})
	}
}

// available returns how many buffers a grant could take now: those
// released back and those not yet made.
func (pl *Pool) available() int { return len(pl.free) + pl.size - len(pl.bufs) }

// grant takes a free buffer for the requester (bookkeeping only — the
// caller hands it over) and logs the starvation fault when the pool
// runs dry, exactly as the paper requires. The buffer is the one
// released last or, with none recycled, a new one with the next index:
// the order a pool holding every buffer from the start, its free list
// stacked n-1 … 0, would grant in.
func (pl *Pool) grant(p *occam.Proc) *Buffer {
	var buf *Buffer
	if n := len(pl.free); n > 0 {
		idx := pl.free[n-1]
		pl.free = pl.free[:n-1]
		pl.refs[idx] = 1
		buf = pl.bufs[idx]
		buf.Payload = segment.Wire{}
		buf.Stream = 0
	} else {
		buf = &Buffer{Index: len(pl.bufs)}
		pl.bufs = append(pl.bufs, buf)
		pl.refs = append(pl.refs, 1)
	}
	pl.grants++
	if pl.available() == 0 && !pl.wasStarved {
		// The next request will block: log the (serious) fault.
		pl.wasStarved = true
		pl.starvations++
		pl.trace.Emit(obs.EvOverload, pl.source, 0, "buffer pool exhausted")
		if pl.reports != nil {
			pl.reports.TrySend(p, Report{Starved: true, Free: 0, Total: pl.size})
		}
	}
	return buf
}

func (pl *Pool) applyRefChange(ch refChange) {
	if ch.Index < 0 || ch.Index >= len(pl.refs) {
		panic(fmt.Sprintf("allocator: ref change for bad index %d", ch.Index))
	}
	pl.refs[ch.Index] += ch.Delta
	switch {
	case pl.refs[ch.Index] < 0:
		panic(fmt.Sprintf("allocator: buffer %d reference count went negative", ch.Index))
	case pl.refs[ch.Index] == 0:
		pl.free = append(pl.free, ch.Index)
	}
}

// GetInto obtains an empty buffer into *dst. While none are free the
// requesting process is descheduled ("by the usual channel
// synchronisation mechanism") until a Release frees one; blocked
// requesters are served oldest first. The Release that ends the wait
// writes *dst itself, so a stackless process parked here finds its
// buffer there at its next turn; dst must stay valid until then.
func (pl *Pool) GetInto(p *occam.Proc, dst **Buffer) {
	if pl.available() > 0 && len(pl.waiters) == 0 {
		*dst = pl.grant(p)
		return
	}
	var sig *occam.Signal
	if n := len(pl.sigFree); n > 0 {
		sig, pl.sigFree = pl.sigFree[n-1], pl.sigFree[:n-1]
	} else {
		sig = occam.NewSignal(pl.rt, "alloc.wait")
	}
	pl.waiters = append(pl.waiters, waiter{sig, dst})
	sig.Wait(p)
}

// Get obtains an empty buffer: GetInto for a process with a stack to
// return it on. Only a starved Get has a waiter to give an address to,
// so only that one pays for a local the granting Release can reach.
func (pl *Pool) Get(p *occam.Proc) *Buffer {
	if pl.available() > 0 && len(pl.waiters) == 0 {
		return pl.grant(p)
	}
	p.NeedsStack("Pool.Get", "a dry pool")
	var buf *Buffer
	pl.GetInto(p, &buf)
	return buf
}

// wakeWaiter hands a newly freed buffer to the longest-waiting
// requester. The grant bookkeeping runs here, in the releasing
// process, and the buffer is in the requester's hands before it is
// woken, so it cannot be stolen before the woken requester runs.
func (pl *Pool) wakeWaiter(p *occam.Proc) {
	w := pl.waiters[0]
	copy(pl.waiters, pl.waiters[1:])
	pl.waiters[len(pl.waiters)-1] = waiter{}
	pl.waiters = pl.waiters[:len(pl.waiters)-1]
	*w.dst = pl.grant(p)
	w.sig.Raise()
	pl.sigFree = append(pl.sigFree, w.sig) // a raise that wakes leaves nothing latched
}

// Retain adds extra references before a buffer descriptor is sent to
// more than one downstream process ("to increment the reference
// count").
func (pl *Pool) Retain(p *occam.Proc, b *Buffer, extra int) {
	if extra <= 0 {
		return
	}
	pl.applyRefChange(refChange{Index: b.Index, Delta: extra})
}

// Release drops one reference when a process has finished with a
// buffer without passing it on. At zero references the buffer returns
// to the free list — or goes straight to a starved requester.
func (pl *Pool) Release(p *occam.Proc, b *Buffer) {
	pl.applyRefChange(refChange{Index: b.Index, Delta: -1})
	if pl.available() > 0 {
		if pl.wasStarved {
			pl.wasStarved = false
			pl.trace.Emit(obs.EvRecover, pl.source, 0, "buffers free again")
		}
		if len(pl.waiters) > 0 {
			pl.wakeWaiter(p)
		}
	}
}

// RequestReport asks the allocator to emit a status report. It
// returns at once on a pool built without a report channel.
func (pl *Pool) RequestReport(p *occam.Proc) {
	if pl.reports == nil {
		return
	}
	pl.cmd.Send(p, struct{}{})
}

// Size returns the pool size.
func (pl *Pool) Size() int { return pl.size }

// Starvations returns how many times the pool ran dry.
func (pl *Pool) Starvations() uint64 { return pl.starvations }

package decouple

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/occam"
)

// Report is a decoupling buffer status report: "its present length
// (indicating where any delay is being introduced), size limit and
// pointer positions (indicating how active it is)".
type Report struct {
	Name   string
	Length int
	Limit  int
	Pushed uint64
	Popped uint64
}

func (r Report) String() string {
	return fmt.Sprintf("decouple %s: %d/%d queued, %d in, %d out",
		r.Name, r.Length, r.Limit, r.Pushed, r.Popped)
}

// Buffer is a decoupling buffer: the ring plus one staged item — the
// head of the queue, held outside the ring ready for the consumer, so
// a buffer of limit n accepts n + 1 items before it is full and
// decouple_queued counts only what waits behind the head.
//
// The buffer is passive. Queueing spends no virtual time, so producer
// and consumer run its bookkeeping inline; only a consumer that finds
// it empty, or a Send that finds it full, parks — on a signal the
// other side raises.
//
// A buffer is one object: the ring and both signals are held by value,
// and the signals borrow the buffer's name.
type Buffer[T any] struct {
	rt   *occam.Runtime
	name string
	ring Ring[T]

	staged    T
	hasStaged bool

	// wake parks the consumer while nothing can be taken: ownWake, or
	// the buffer's it shares a consumer with (ShareWake).
	wake    *occam.Signal
	ownWake occam.Signal
	notFull occam.Signal // parks a Send producer while the ring is full

	reg     *obs.Registry
	refused uint64
	trace   *obs.Tracer

	stall *stall // nil without a sink-stall fault (SetStall)
}

// stall is a buffer's sink-stall fault: an item staged inside an outage
// is withheld until heldUntil, when end wakes the consumer.
type stall struct {
	until     func(now occam.Time) occam.Time
	count     uint64
	end       *occam.Timer
	heldUntil occam.Time
	countedT  occam.Time // end of the outage already counted
}

// New creates a decoupling buffer of the given capacity. reg (nil for
// none) receives the occupancy and limit gauges and the activity and
// refusal counters, labelled with the buffer name.
func New[T any](rt *occam.Runtime, name string, capacity int, reg *obs.Registry) *Buffer[T] {
	b := &Buffer[T]{
		rt:    rt,
		name:  name,
		reg:   reg,
		trace: reg.Tracer(),
	}
	b.ring.init(capacity)
	b.ownWake.Init(b.name, ".out")
	b.notFull.Init(b.name, ".in")
	b.wake = &b.ownWake
	bufferTable.Register(reg, b, obs.L("buffer", name))
	return b
}

// meter is what a buffer's registry rows read, whatever its item type.
type meter interface {
	Report() Report
	Dropped() uint64
	stalled() uint64
}

// bufferTable is a buffer's occupancy and limit gauges and its
// activity and refusal counters.
var bufferTable = obs.NewTable(
	obs.GaugeOf("decouple_queued", func(b meter) float64 { return float64(b.Report().Length) }),
	obs.GaugeOf("decouple_limit", func(b meter) float64 { return float64(b.Report().Limit) }),
	obs.CounterOf("decouple_pushed_total", func(b meter) uint64 { return b.Report().Pushed }),
	obs.CounterOf("decouple_popped_total", func(b meter) uint64 { return b.Report().Popped }),
	obs.CounterOf("decouple_refused_total", meter.Dropped),
)

// stallTable is a buffer's sink-stall count, registered by SetStall.
var stallTable = obs.NewTable(obs.CounterOf("decouple_stalled_total", meter.stalled))

// stalled is read only through stallTable, which SetStall registers.
func (b *Buffer[T]) stalled() uint64 { return b.stall.count }

// SetStall attaches a fault-injection hook modelling a stuck consumer
// (a wedged output device): fn returns the end of any outage covering
// the given time. An item that reaches the head of the queue inside an
// outage is withheld from the consumer until the outage ends, while
// the ring behind it keeps filling, so upstream sees exactly the
// back-pressure a dead sink would cause. Each outage counts once on
// decouple_stalled_total{buffer=...} and emits an EvFault trace event.
// faultinject.Stalls converts outage windows into a suitable fn. Call
// before any data flows.
func (b *Buffer[T]) SetStall(fn func(now occam.Time) occam.Time) {
	st := &stall{until: fn}
	b.stall = st
	stallTable.Register(b.reg, b, obs.L("buffer", b.name))
	st.end = occam.NewTimer(b.rt, func(s occam.Sched) {
		if st.heldUntil > s.Now() {
			s.Schedule(st.end, st.heldUntil) // a later outage took over
			return
		}
		s.Raise(b.wake)
	})
}

// ShareWake makes b wake the consumer of with, for one process that
// serves both buffers: it polls them with TryRecv in priority order
// and calls with.Wait when both are empty.
func (b *Buffer[T]) ShareWake(with *Buffer[T]) { b.wake = with.wake }

// stage moves the oldest queued item to the head slot if that is
// free, applying the stall hook, and reports whether an item the
// consumer can take now has appeared.
func (b *Buffer[T]) stage(p *occam.Proc) bool {
	if b.hasStaged {
		return false
	}
	if b.staged, b.hasStaged = b.ring.Pop(); !b.hasStaged {
		return false
	}
	st := b.stall
	if st == nil {
		return true
	}
	now := p.Now()
	until := st.until(now)
	if until <= now {
		return true
	}
	if until > st.countedT {
		// Count each outage once, not once per queued item.
		st.countedT = until
		st.count++
		b.trace.Emit(obs.EvFault, "decouple."+b.name, 0, "sink stalled")
	}
	st.heldUntil = until
	if !st.end.Active() {
		st.end.Schedule(until)
	}
	return false
}

// Deliver is the ready protocol of figure 3.6 seen from upstream: it
// queues v and returns true, or — the buffer's FALSE — counts a
// refusal on decouple_refused_total and returns false at once, so the
// producer "can then choose to throw away the data rather than block
// waiting for the buffer to become free".
func (b *Buffer[T]) Deliver(p *occam.Proc, v T) bool {
	if !b.ring.Push(v) {
		b.refused++
		b.trace.Emit(obs.EvDrop, "decouple."+b.name, 0, "ready-refusal")
		return false
	}
	if b.stage(p) {
		b.wake.Raise()
	}
	return true
}

// Send queues v, blocking the producer while the buffer is full
// "until an item has been read from the buffer" — the plain buffer
// without a ready channel. One process at a time may block in Send.
func (b *Buffer[T]) Send(p *occam.Proc, v T) {
	for !b.ring.Push(v) {
		b.notFull.Wait(p)
	}
	if b.stage(p) {
		b.wake.Raise()
	}
}

// TryRecv takes the head item if there is one the consumer may have
// now (none while a sink stall withholds it).
func (b *Buffer[T]) TryRecv(p *occam.Proc) (v T, ok bool) {
	if !b.hasStaged || (b.stall != nil && p.Now() < b.stall.heldUntil) {
		return v, false
	}
	var zero T
	v, b.staged, b.hasStaged = b.staged, zero, false
	wasFull := b.ring.Full()
	b.stage(p)
	if wasFull && !b.ring.Full() {
		b.notFull.Raise()
	}
	return v, true
}

// Wait parks the consumer until an item may have become available.
func (b *Buffer[T]) Wait(p *occam.Proc) { b.wake.Wait(p) }

// Recv takes the head item, parking the consumer while there is none.
// It is this loop of TryRecv and Wait, which a stackless consumer runs
// for itself, a turn at a time.
func (b *Buffer[T]) Recv(p *occam.Proc) T {
	for {
		if v, ok := b.TryRecv(p); ok {
			return v
		}
		p.NeedsStack("decouple.Buffer.Recv", b.name)
		b.wake.Wait(p)
	}
}

// Dropped returns how many items Deliver refused.
func (b *Buffer[T]) Dropped() uint64 { return b.refused }

// Occupancy returns the buffer's present length over its size limit,
// the staged head not counted: decouple_queued over decouple_limit.
func (b *Buffer[T]) Occupancy() float64 { return float64(b.ring.Len()) / float64(b.ring.Cap()) }

// Report returns the buffer's status report.
func (b *Buffer[T]) Report() Report {
	return Report{
		Name:   b.name,
		Length: b.ring.Len(),
		Limit:  b.ring.Cap(),
		Pushed: b.ring.Pushed(),
		Popped: b.ring.Popped(),
	}
}

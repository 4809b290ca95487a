package atm

import (
	"time"

	"repro/internal/obs"
	"repro/internal/occam"
)

// FaultAction is a fault hook's verdict on one message arriving at a
// link queue. The zero value passes the message through untouched.
type FaultAction struct {
	// Drop discards the message (burst cell loss); Reason labels the
	// trace event.
	Drop   bool
	Reason string
	// Corrupt flags the message so the receiver discards it on
	// delivery (it still consumes network resources on the way).
	Corrupt bool
	// Duplicate enqueues a second copy of the message (misbehaving
	// switch fabric), subject to the normal queue bound.
	Duplicate bool
	// Delay is extra transmission delay for this message (jitter).
	Delay time.Duration
}

// FaultHook is a deterministic fault process attached to a link with
// SetFault. OnMessage is consulted once per arriving message;
// StallUntil is consulted before each transmission and returns the
// virtual time until which the transmitter is stuck (zero or a past
// time means no stall). Implementations live in internal/faultinject;
// they make decisions only, so the same seed always yields the same
// schedule — the gate owns the counters and trace events.
type FaultHook interface {
	OnMessage(now occam.Time, vci uint32, size int) FaultAction
	StallUntil(now occam.Time) occam.Time
}

// FaultStats reports the injected-fault counters.
type FaultStats struct {
	Drops       uint64
	Corruptions uint64
	Duplicates  uint64
	Delays      uint64
	Stalls      uint64
}

// Add adds o's counts to s.
func (s *FaultStats) Add(o FaultStats) {
	s.Drops += o.Drops
	s.Corruptions += o.Corruptions
	s.Duplicates += o.Duplicates
	s.Delays += o.Delays
	s.Stalls += o.Stalls
}

// Total is how many faults of every kind were injected.
func (s FaultStats) Total() uint64 {
	return s.Drops + s.Corruptions + s.Duplicates + s.Delays + s.Stalls
}

// FaultGate is the injected-fault stage of an admission pipeline: it
// owns the hook, the five counters, the trace source and the three
// decisions a hook can force — Admit (drop / corrupt / delay /
// duplicate), Duplicated (the second copy's accounting) and StallUntil.
// A Link and a fabric Port each hold one in front of their own queue;
// the queue bound and transmit pacing stay with the holder, which
// counts messages on a link and cells and trains on a port.
//
// Ownership: Admit releases the wire of a message it drops — the one
// injected-fault drop point — and Duplicated retains the reference the
// second copy carries. Every injected fault increments a counter and,
// except per-message jitter, which would flood the ring, emits an
// EvFault trace event.
type FaultGate struct {
	hook        FaultHook
	source      string // trace source
	stallReason string // "link-stall" or "port-stall"
	trace       *obs.Tracer
	stats       FaultStats
}

// NewFaultGate returns a gate with no hook attached: everything passes.
func NewFaultGate(source, stallReason string) *FaultGate {
	return &FaultGate{source: source, stallReason: stallReason}
}

// SetHook attaches a fault process (nil detaches).
func (g *FaultGate) SetHook(h FaultHook) { g.hook = h }

// Trace sets where the gate's EvFault events go.
func (g *FaultGate) Trace(t *obs.Tracer) { g.trace = t }

// FaultColumns is the five counters of the gate each object holds, as
// the families prefix+"drops_total", "corruptions_total",
// "duplicates_total", "delays_total" and "stalls_total".
func FaultColumns[T any](prefix string, gate func(T) *FaultGate) []obs.Column[T] {
	return []obs.Column[T]{
		obs.CounterOf(prefix+"drops_total", func(o T) uint64 { return gate(o).stats.Drops }),
		obs.CounterOf(prefix+"corruptions_total", func(o T) uint64 { return gate(o).stats.Corruptions }),
		obs.CounterOf(prefix+"duplicates_total", func(o T) uint64 { return gate(o).stats.Duplicates }),
		obs.CounterOf(prefix+"delays_total", func(o T) uint64 { return gate(o).stats.Delays }),
		obs.CounterOf(prefix+"stalls_total", func(o T) uint64 { return gate(o).stats.Stalls }),
	}
}

// Stats returns a copy of the injected-fault counters.
func (g *FaultGate) Stats() FaultStats { return g.stats }

// Admit consults the hook about one arriving message. ok false means
// the message was dropped and its wire released. Otherwise m carries
// any injected corruption flag and delay, and dup asks the holder to
// queue a second copy if its bound allows, calling Duplicated when it
// does.
func (g *FaultGate) Admit(now occam.Time, m *Message) (ok, dup bool) {
	if g.hook == nil {
		return true, false
	}
	act := g.hook.OnMessage(now, m.VCI, m.Size)
	if act.Drop {
		reason := act.Reason
		if reason == "" {
			reason = "injected-loss"
		}
		g.stats.Drops++
		g.trace.EmitAt(now, obs.EvFault, g.source, m.VCI, reason)
		m.W.Release()
		return false, false
	}
	if act.Corrupt {
		m.Corrupt = true
		g.stats.Corruptions++
		g.trace.EmitAt(now, obs.EvFault, g.source, m.VCI, "injected-corruption")
	}
	if act.Delay > 0 {
		m.FaultDelay += act.Delay
		g.stats.Delays++
	}
	return true, act.Duplicate
}

// Duplicated accounts for an injected duplicate the holder is about to
// queue: a second full message, carrying its own wire reference.
func (g *FaultGate) Duplicated(now occam.Time, m *Message) {
	m.W.Retain(1)
	g.stats.Duplicates++
	g.trace.EmitAt(now, obs.EvFault, g.source, m.VCI, "injected-duplicate")
}

// StallUntil returns when a transmission due to start at now may
// start: now, or the end of the outage the hook has the transmitter
// wedged in (what is already queued waits it out). vci labels the
// trace event.
func (g *FaultGate) StallUntil(now occam.Time, vci uint32) occam.Time {
	if g.hook == nil {
		return now
	}
	until := g.hook.StallUntil(now)
	if until <= now {
		return now
	}
	g.stats.Stalls++
	g.trace.EmitAt(now, obs.EvFault, g.source, vci, g.stallReason)
	return until
}

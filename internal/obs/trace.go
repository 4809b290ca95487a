package obs

import (
	"fmt"

	"repro/internal/occam"
)

// The event tracer: a bounded ring buffer of data-path events stamped
// with virtual time. Where the registry answers "how many", the trace
// answers "when and in what order" — the paper's host-log report lines
// (§3.8), but structured, bounded, and cheap enough to leave on.

// EventKind classifies a trace event.
type EventKind uint8

// Event kinds.
const (
	// EvStreamOpen: a stream was created or reactivated somewhere on
	// the data path (mixer stream activation, route installed, mic or
	// camera started).
	EvStreamOpen EventKind = iota
	// EvStreamClose: the reverse.
	EvStreamClose
	// EvDrop: data was discarded; Detail carries the reason (the
	// clawback DropReason, "queue", "loss", "late-duplicate", ...).
	EvDrop
	// EvOverload: a resource entered an overloaded state (output
	// buffer full, allocator starved, audio tick overran).
	EvOverload
	// EvRecover: an overloaded resource relaxed back to normal.
	EvRecover
	// EvReconfig: a control-plane change (route table update,
	// blocks-per-segment change, resize).
	EvReconfig
	// EvFault: an injected fault fired (faultinject burst loss,
	// corruption, duplication, link stall, board crash). Distinct from
	// EvDrop so replayed fault schedules can be audited apart from the
	// system's own reactions to them.
	EvFault
	// EvRepair: a distribution tree was repaired around a failed
	// interior box — its orphaned children were re-parented onto
	// surviving boxes mid-stream. Distinct from EvReconfig so tree
	// repairs can be audited apart from routine route updates.
	EvRepair
	// EvStatus: a status report a command asked for (§1.2), such as
	// the server switch's route and traffic counts.
	EvStatus
)

func (k EventKind) String() string {
	switch k {
	case EvStreamOpen:
		return "stream-open"
	case EvStreamClose:
		return "stream-close"
	case EvDrop:
		return "drop"
	case EvOverload:
		return "overload"
	case EvRecover:
		return "recover"
	case EvReconfig:
		return "reconfig"
	case EvFault:
		return "fault"
	case EvRepair:
		return "repair"
	case EvStatus:
		return "status"
	}
	return "?"
}

// Event is one traced occurrence. Its fields are ordered so that Kind
// and Stream share a word: an event is 48 bytes.
type Event struct {
	At     occam.Time
	Source string // emitting component, e.g. "atm.alice-bob.0" or "alice.switch"
	Detail string // reason or free-form note
	Stream uint32 // stream number / VCI, 0 when not applicable
	Kind   EventKind
}

func (e Event) String() string {
	s := fmt.Sprintf("[%10.3fms] %-12s %-24s", e.At.Millis(), e.Kind, e.Source)
	if e.Stream != 0 {
		s += fmt.Sprintf(" stream=%-6d", e.Stream)
	} else {
		s += "              "
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// DefaultTraceCap bounds the event ring: old events are overwritten,
// so a long simulation keeps its most recent history.
const DefaultTraceCap = 4096

// Tracer is the bounded event ring. Emit is nil-receiver safe, so
// instrumented code traces unconditionally.
//
// The ring's storage grows with what it holds, as append grows a
// slice, until it holds the capacity; from then on each event
// overwrites the oldest. A run that traces little holds little.
type Tracer struct {
	clock Clock
	buf   []Event // len grows to limit, then stays
	limit int
	next  int
	n     int
	total uint64
}

func newTracer(clock Clock, capacity int) *Tracer {
	return &Tracer{clock: clock, limit: capacity}
}

// Emit records one event stamped with the current virtual time.
func (t *Tracer) Emit(kind EventKind, source string, stream uint32, detail string) {
	if t == nil {
		return
	}
	var at occam.Time
	if t.clock != nil {
		at = t.clock.Now()
	}
	t.EmitAt(at, kind, source, stream, detail)
}

// EmitAt records one event stamped with the given time. It is for
// callers that hold the instant already: code inside the scheduler
// (occam.Timer callbacks) passes its Sched.Now, which is the idiom there,
// and saves Emit's clock read.
func (t *Tracer) EmitAt(at occam.Time, kind EventKind, source string, stream uint32, detail string) {
	if t == nil {
		return
	}
	e := Event{At: at, Kind: kind, Source: source, Stream: stream, Detail: detail}
	if len(t.buf) < t.limit {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
	}
	t.next = (t.next + 1) % t.limit
	if t.n < t.limit {
		t.n++
	}
	t.total++
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// Total returns how many events were ever emitted (including ones the
// ring has since overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return t.limit
}

package occam

// Scheduler-context primitives: the machinery that lets a subsystem be
// *passive* — driven by timer callbacks and woken processes instead of
// by dedicated processes of its own. A message pipeline built from
// processes pays one park/wake cycle per rendezvous; built from a
// Timer chain it pays one queue operation per paced step and nothing at
// all for the zero-time bookkeeping in between. The fabric's crossbar
// and the ATM link transmitters use these to keep their virtual-time
// behaviour while shedding almost all of their scheduling cost.
//
// Two execution contexts exist and must not be confused:
//
//   - process context: ordinary user code in a process body — a
//     coroutine the dispatch loop in RunUntil has switched into, or a
//     step function it has called. It may call every blocking primitive
//     (a step function under GoStep's rules), and arms Timers with
//     Timer.Schedule and raises Signals with Signal.Raise.
//   - scheduler context: a Timer callback, running *inside* the
//     scheduler with no process current. The scheduler has no goroutine
//     of its own: its code runs in whichever context is giving up the
//     CPU — the process that is parking or exiting, which picks its own
//     successor, or the dispatch loop — so a callback may find itself on
//     any coroutine's stack. It must not block: there is no process to
//     park, and every Proc method is out of bounds. It receives a Sched
//     capability, which is what marks code as written for this context,
//     and goes through that for everything: Sched.Now, Sched.Schedule
//     and Sched.Raise. (Runtime.Now would read the same field; Sched.Now
//     is the idiom because a function that takes a Sched says where it
//     may be called from.)
//
// Only one of the dispatch loop and the processes is ever executing, and
// all of it on the goroutine inside RunUntil, so callback code may touch
// the same plain data structures processes touch. Nothing here is
// locked: see Runtime for the confinement rule.

// Sched is the capability handle passed to Timer callbacks. It marks
// the caller as in scheduler context and exposes the operations legal
// there.
type Sched struct{ rt *Runtime }

// Now returns the current virtual time.
func (s Sched) Now() Time { return s.rt.now }

// Schedule arms tm to fire at time t (clamped to now). Panics if tm is
// already armed.
func (s Sched) Schedule(tm *Timer, t Time) { tm.Schedule(t) }

// Raise raises sig from scheduler context.
func (s Sched) Raise(sig *Signal) { sig.Raise() }

// Timer is a reusable scheduler-context callback: when armed, its
// function runs at the scheduled virtual instant, interleaved with
// process wake-ups in (time, arming-order) sequence. A Timer owns its
// event, so re-arming allocates nothing. One Timer is one pending
// event: it must not be armed again until it has fired (the callback
// itself may re-arm, which is how paced chains self-perpetuate).
type Timer struct {
	rt *Runtime
	ev timerEv
}

// NewTimer returns an unarmed timer whose callback is fn. fn runs in
// scheduler context — see the package rules above.
func NewTimer(rt *Runtime, fn func(s Sched)) *Timer {
	return &Timer{rt: rt, ev: timerEv{fn: fn}}
}

// Schedule arms the timer to fire at time t (clamped to now). Panics if
// the timer is already armed. Sched.Schedule is the same call, spelt for
// scheduler context.
func (tm *Timer) Schedule(t Time) { tm.rt.arm(&tm.ev, t) }

// Active reports whether the timer is armed. Call from process
// context, or on scheduler-context state the caller already owns.
func (tm *Timer) Active() bool { return tm.ev.armed }

// Signal is a single-waiter level-triggered wakeup: the bridge from
// scheduler context back to a blocked process. Raise while a process
// waits makes it runnable; Raise with no waiter is remembered, so the
// next Wait returns immediately (raises do not accumulate past one).
// Exactly one process may wait at a time.
//
// The zero Signal is ready to use, so an owner may hold one by value
// and name it with Init.
type Signal struct {
	p *Proc
	// The name deadlock dumps show for a process waiting on it: owner
	// then suffix, joined only when a dump asks.
	owner, suffix string
	set           bool
}

// NewSignal returns a signal. The name shows up in deadlock dumps as
// what the waiting process is blocked on.
func NewSignal(rt *Runtime, name string) *Signal {
	return &Signal{owner: name}
}

// Init names a signal held by value: diagnostics show owner followed
// by suffix, so an owner lends its own name instead of building one.
func (s *Signal) Init(owner, suffix string) { s.owner, s.suffix = owner, suffix }

func (s *Signal) waitName() string { return s.owner + s.suffix }

// Wait blocks the process until the signal is raised, consuming the
// raise. Returns immediately if a raise is already pending.
func (s *Signal) Wait(p *Proc) {
	if s.set {
		s.set = false
		return
	}
	if s.p != nil {
		panic("occam: Signal already has a waiter: " + s.waitName())
	}
	s.p = p
	p.rt.park(p, stRecv, s)
}

// Raise wakes the waiting process, or latches if none is waiting.
// Sched.Raise is the same call, spelt for scheduler context.
func (s *Signal) Raise() {
	if p := s.p; p != nil {
		s.p = nil
		p.rt.ready(p)
		return
	}
	s.set = true
}

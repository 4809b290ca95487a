package occam

import (
	"errors"
	"fmt"
	"iter"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// Priority is a process priority level. The transputer hardware
// scheduler had exactly two: high-priority processes run whenever
// runnable, ahead of any low-priority process.
type Priority uint8

const (
	// Low is the default priority.
	Low Priority = iota
	// High priority processes are always scheduled before Low ones.
	High
)

func (p Priority) String() string {
	if p == High {
		return "high"
	}
	return "low"
}

// errKilled unwinds process coroutines during Runtime.Shutdown.
var errKilled = errors.New("occam: runtime shut down")

// ErrDeadlock is returned (wrapped in a DeadlockError) by Run when no
// process is runnable and no timer is pending but processes remain.
var ErrDeadlock = errors.New("occam: deadlock")

// DeadlockError reports the blocked processes when a simulation can
// make no further progress.
type DeadlockError struct {
	Now   Time
	Procs []string // "name [pri] state"
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("occam: deadlock at %v with %d blocked processes:\n  %s",
		e.Now, len(e.Procs), strings.Join(e.Procs, "\n  "))
}

func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// statusKind classifies what a process is blocked on. The textual
// status shown in deadlock dumps is composed lazily from it, the
// process's on and word (statusText); building the string eagerly on
// every park was a top allocation source on the data path.
type statusKind uint8

const (
	stRunning statusKind = iota
	stRunnable
	stSend
	stRecv
	stSleep
	stAlt
	stCPU
)

// waitee is what a process can be parked on by name: a channel, a
// signal or a node. It names itself only when a diagnostic asks, so
// the name may be composed from parts its owner already holds.
type waitee interface{ waitName() string }

// Stepper is the code of a stackless process (GoStep): at each of the
// process's turns the dispatch loop calls Step, which runs the process
// from where it left off to its next wait and returns. A type whose
// Step method is the process's loop is started as it is, with no
// closure around it; StepFunc adapts a function.
type Stepper interface{ Step(p *Proc) }

// StepFunc is a function used as a Stepper.
type StepFunc func(p *Proc)

// Step calls f(p).
func (f StepFunc) Step(p *Proc) { f(p) }

// coroutine is the body of a process started with Go: an iter.Pull
// coroutine. The dispatch loop calls resume, park calls yield to switch
// back to it, and Shutdown calls stop. It is the one part of a process
// only a coroutine has, so it sits behind the process's body.
type coroutine struct {
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
}

// Step is a coroutine's turn: it switches into the body, which runs to
// its next park.
func (c *coroutine) Step(*Proc) { c.resume() }

// Proc is an Occam process, given its turns by the virtual-time
// Runtime's dispatch loop in one of two forms. Started with Go it is a
// coroutine: the loop resumes it and a blocking primitive switches back.
// Started with GoStep it is stackless: the loop calls its Stepper
// and a blocking primitive arms the wait and returns. All blocking
// primitives take the Proc as receiver and may only be called from the
// process's own code while it is the currently scheduled process.
//
// A Proc is one 128-byte object (TestObjectsFitTheirSizeClass): what it
// needs only as a coroutine is behind body.
type Proc struct {
	rt   *Runtime
	node *Node
	name string

	// body is what the dispatch loop runs at each turn: the Stepper of
	// a stackless process, or the *coroutine of one started with Go.
	body Stepper

	// What the process is blocked on (see statusText): the channel,
	// signal or node named in its status, and the one number its kind
	// carries — a sleep deadline, a CPU grant's duration or an
	// alternation's guard count.
	on   waitee
	word int64

	// ev is the one wake-up or grant completion the process can be
	// parked on at a time.
	ev timerEv

	idx    int32 // place in Runtime.procs
	chosen int32 // the index of the Alt guard that fired, -1 until one does
	pri    Priority
	stKind statusKind
	// stackless is set for a process started with GoStep.
	stackless bool
	// parked is set when a blocking primitive has armed a stackless
	// process's wait, and cleared at its next turn: a step that returns
	// with it clear has exited.
	parked bool
	// The alternation state, reused across Alt calls: a process runs at
	// most one alternation at a time and every registration is removed
	// before Alt returns. fired is claimed by the first guard to fire;
	// waiting is set while a stackless process's guards are enabled, so
	// that its next Alt call finishes this one.
	fired   bool
	waiting bool
}

// statusText composes the diagnostic description of what the process
// is blocked on, for deadlock dumps and scheduler traces.
func (p *Proc) statusText() string {
	switch p.stKind {
	case stRunning:
		return "running"
	case stRunnable:
		return "runnable"
	case stSend:
		return "send " + p.on.waitName()
	case stRecv:
		return "recv " + p.on.waitName()
	case stSleep:
		return fmt.Sprintf("sleep until %v", Time(p.word))
	case stAlt:
		return fmt.Sprintf("alt over %d guards", p.word)
	case stCPU:
		return fmt.Sprintf("cpu %s for %v", p.on.waitName(), time.Duration(p.word))
	}
	return "?"
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.rt.now }

// timerEv is a pending timer: it wakes a process, completes a CPU
// grant, or runs fn in scheduler context (fn must only touch
// runtime-internal state). An event belongs to what waits on it — the
// Proc it wakes or the Timer whose fn it runs — so
// arming allocates nothing, and it carries no key: its place in its
// run is its place in the firing order.
type timerEv struct {
	next  *timerEv // armed after this one, in the same run; nil once taken
	p     *Proc
	fn    func(Sched)
	grant *Node // non-nil: a CPU grant for p completes on this node
	armed bool  // queued; cleared as the event is taken to fire
}

// timerRun is the events armed back to back for one instant, a FIFO
// through timerEv.next. seq is that of the arming that opened it: no
// event outside a run is armed between two of its own, so none has a
// key between theirs and the opening key orders the whole run.
type timerRun struct {
	at   Time
	seq  uint64
	head *timerEv
}

// timerQueue holds the pending events in (at, seq) order as a 4-ary
// min-heap of runs, keyed in place. An event joins a run only while
// that run is the newest, which is what keeps other keys out of it;
// most of a simulated system shares a few clock grids, so there are
// far fewer runs than events. Four children per node halve the depth
// of the binary heap for the same compares per level. The sifts run on
// the stack of whichever process is parking: they stay leaves.
type timerQueue struct {
	runs   []timerRun
	tail   *timerEv // last event of the newest run; nil once that run is taken whole
	tailAt Time
}

// push queues ev for (at, seq); seq must be the highest yet.
func (q *timerQueue) push(at Time, seq uint64, ev *timerEv) {
	if q.tail != nil && q.tailAt == at {
		q.tail.next = ev
		q.tail = ev
		return
	}
	q.tail, q.tailAt = ev, at
	q.runs = append(q.runs, timerRun{at, seq, ev})
	q.up(len(q.runs) - 1)
}

// take removes and returns the earliest event. The queue must not be
// empty.
func (q *timerQueue) take() *timerEv {
	ev := q.runs[0].head
	ev.armed = false
	if next := ev.next; next != nil {
		q.runs[0].head, ev.next = next, nil
		return ev
	}
	if q.tail == ev {
		q.tail = nil
	}
	q.pop()
	return ev
}

// beforeMask is all ones if r fires ahead of the key (at, seq) —
// earlier time first, then arming order — and zero if not: the borrow
// out of (r.at, r.seq) − (at, seq) taken as one 128-bit subtraction, no
// time being negative.
func (r *timerRun) beforeMask(at Time, seq uint64) uint64 {
	_, b := bits.Sub64(r.seq, seq, 0)
	_, b = bits.Sub64(uint64(r.at), uint64(at), b)
	return -b
}

// up moves run i above every later ancestor.
func (q *timerQueue) up(i int) {
	h := q.runs
	for i > 0 {
		parent := (i - 1) / 4
		if h[i].beforeMask(h[parent].at, h[parent].seq) == 0 {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes the first run: the last takes its place and moves below
// every earlier descendant.
func (q *timerQueue) pop() {
	n := len(q.runs) - 1
	last := q.runs[n]
	q.runs[n].head = nil
	q.runs = q.runs[:n]
	if n == 0 {
		return
	}
	h, i := q.runs, 0
	for first := 1; first < n; first = 4*i + 1 {
		min, at, seq := first, h[first].at, h[first].seq
		for c := first + 1; c < first+4 && c < n; c++ {
			// Which child is earliest is a coin toss to a branch
			// predictor: select under a mask instead.
			r := &h[c]
			m := r.beforeMask(at, seq)
			min ^= (min ^ c) & int(m)
			at ^= (at ^ r.at) & Time(m)
			seq ^= (seq ^ r.seq) & m
		}
		if last.beforeMask(at, seq) != 0 {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
}

// runq is a FIFO run queue: a power-of-two ring, so push and pop are
// O(1) however many processes become ready at one instant.
type runq struct {
	buf  []*Proc // len is zero or a power of two
	head int     // position of the first queued process
	n    int     // queued processes
}

func (q *runq) push(p *Proc) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
}

// pop removes and returns the first queued process. The queue must not
// be empty.
func (q *runq) pop() *Proc {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return p
}

// grow doubles a full ring, unwrapping it to start at position zero.
func (q *runq) grow() {
	buf := make([]*Proc, max(2*len(q.buf), 16))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Runtime is a deterministic virtual-time scheduler for Occam
// processes. Exactly one process executes user code at a time; when
// every process is blocked the clock jumps to the next timer event.
// Create with NewRuntime, start processes with Go, then drive the
// simulation with Run or RunUntil.
//
// Processes run on the goroutine that calls RunUntil (see the package
// comment): its dispatch loop gives one process its turn — resuming its
// coroutine, or calling its step function if it is stackless — and the
// process runs until it parks and comes straight back, naming the
// process it popped as the one to run next.
//
// A Runtime is confined, like a bytes.Buffer: it and everything hung on
// it — Proc, Chan, Link, Node, Timer, Signal, and whatever a simulation
// builds from them — is used by one goroutine at a time. Typically that
// is the goroutine building the system, then the one inside RunUntil,
// then whoever reads the results, and each hand-over needs an ordinary
// happens-before (a channel, a WaitGroup, program order). There is no
// lock: Now, Switches, NumProcs, Done and the Node readers are field
// reads, and reading them from another goroutine while RunUntil runs is
// a data race.
type Runtime struct {
	now      Time
	seq      uint64
	runqHigh runq
	runqLow  runq
	timers   timerQueue
	limit    Time
	procs    []*Proc // the live processes, each at its Proc.idx
	killed   bool
	running  bool  // inside RunUntil
	handoff  *Proc // popped by the process that just parked or exited; the dispatch loop runs it next

	// Trace, if non-nil, receives a line for every scheduling event.
	// For debugging; nil in normal use.
	Trace func(string)

	switches uint64 // context switches performed (experiment E17)
	resumes  uint64 // coroutine resumes performed by the dispatch loop
}

// NewRuntime returns an empty runtime at time zero.
func NewRuntime() *Runtime {
	return &Runtime{limit: Forever}
}

// Now returns the current virtual time.
func (rt *Runtime) Now() Time { return rt.now }

// Switches returns the number of context switches the modelled
// schedulers have performed so far: every turn a process was given,
// whichever its form.
func (rt *Runtime) Switches() uint64 { return rt.switches }

// Resumes returns the number of coroutine resumes the dispatch loop
// has performed: what the host paid two stack switches for. A turn taken
// by calling a step function, or by a parking coroutine that found
// itself next, is in Switches and not here.
func (rt *Runtime) Resumes() uint64 { return rt.resumes }

// NumProcs returns the number of live (started, not yet exited)
// processes.
func (rt *Runtime) NumProcs() int { return len(rt.procs) }

// Go starts a new process named name at priority pri on node (which
// may be nil for a process with no CPU accounting). The process body
// fn runs when the runtime next schedules it, as a coroutine: it keeps
// its stack from one turn to the next. Go may be called before Run or
// from inside another process.
func (rt *Runtime) Go(name string, node *Node, pri Priority, fn func(p *Proc)) *Proc {
	p := rt.newProc(name, node, pri)
	co := new(coroutine)
	co.resume, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		defer func() {
			rt.retire(p, recover()) // nil: fn returned; returning switches to the dispatch loop
		}()
		fn(p)
	})
	p.body = co
	rt.ready(p)
	return p
}

// GoStep starts a stackless process: one whose code needs no stack
// between turns. At each of its turns the dispatch loop calls s.Step,
// on its own stack; Step runs the process from where it left off to its
// next wait and returns. A blocking primitive that has to wait arms the
// wait, marks the process parked (Parked) and returns, and Step must
// then return without calling another; one that need not wait returns
// with the process unparked and Step carries on. A Step that returns
// unparked has exited. The process holds s itself: a struct whose Step
// method is the loop costs no closure. What a wake-up brings is written
// through a pointer handed over when the wait was armed (Chan.RecvInto,
// the Recv guards), so no primitive has a second half to run after the
// wake but Alt, which is called again. In the run queues, the timer
// queue, the trace, Switches and the deadlock dump the process is like
// any other.
func (rt *Runtime) GoStep(name string, node *Node, pri Priority, s Stepper) *Proc {
	p := rt.newProc(name, node, pri)
	p.body, p.stackless = s, true
	rt.ready(p)
	return p
}

// newProc registers a process that has yet to be given its form and
// readied.
func (rt *Runtime) newProc(name string, node *Node, pri Priority) *Proc {
	if rt.killed {
		panic("occam: process " + name + " started after Shutdown")
	}
	p := &Proc{
		rt:   rt,
		node: node,
		name: name,
		pri:  pri,
		idx:  int32(len(rt.procs)),
	}
	p.ev.p = p
	rt.procs = append(rt.procs, p)
	return p
}

// retire removes p, whose code has returned (r is nil) or panicked
// with r. Caller is p itself or, for a stackless p, the dispatch loop.
func (rt *Runtime) retire(p *Proc, r any) {
	if !rt.killed {
		// The last process takes p's place.
		last := rt.procs[len(rt.procs)-1]
		rt.procs[p.idx], last.idx = last, p.idx
		rt.procs[len(rt.procs)-1] = nil
		rt.procs = rt.procs[:len(rt.procs)-1]
	}
	switch r {
	case nil:
		if rt.Trace != nil {
			rt.trace("exit %s", p.name)
		}
		rt.handoff = rt.pick()
	case errKilled:
		// The clean Shutdown unwind of a coroutine.
	default:
		// Carries on out of RunUntil, in the goroutine that called it.
		panic(fmt.Sprintf("occam: process %q panicked: %v", p.name, r))
	}
}

// Parked reports whether a blocking primitive has armed a wait for p, a
// stackless process, during its current turn: its step function must
// return. It is false for a coroutine, whose primitives return only
// when the wait is over.
func (p *Proc) Parked() bool { return p.parked }

// NeedsStack panics if p is stackless: op, a primitive that returns
// what its wake-up brings, is about to park it on the thing named on.
func (p *Proc) NeedsStack(op, on string) {
	if p.stackless {
		panic(fmt.Sprintf("occam: %s on %s would park stackless process %q, which it could not return to", op, on, p.name))
	}
}

// ready appends p to the run queue for its priority.
func (rt *Runtime) ready(p *Proc) {
	p.stKind = stRunnable
	if p.pri == High {
		rt.runqHigh.push(p)
	} else {
		rt.runqLow.push(p)
	}
}

// popRunnable removes and returns the next process to run, or nil.
func (rt *Runtime) popRunnable() *Proc {
	if rt.runqHigh.n > 0 {
		return rt.runqHigh.pop()
	}
	if rt.runqLow.n > 0 {
		return rt.runqLow.pop()
	}
	return nil
}

// pick chooses the next process to run, advancing the clock through
// timer events as needed, and counts the switch to it. It returns nil
// when nothing can run before the limit. Caller is giving up the CPU (it
// is parking, exiting, or is the dispatch loop).
func (rt *Runtime) pick() *Proc {
	for {
		if p := rt.popRunnable(); p != nil {
			rt.switches++
			p.stKind = stRunning
			if rt.Trace != nil {
				rt.trace("run %s", p.name)
			}
			return p
		}
		if !rt.advanceClock() {
			return nil
		}
	}
}

// advanceClock is pick's nothing-runnable step: it advances the clock
// to the next event and fires everything due at that instant. It returns false when there is nothing left to
// run before the limit and true when timers fired, so the caller
// should re-check the run queue.
func (rt *Runtime) advanceClock() bool {
	q := &rt.timers
	if len(q.runs) == 0 {
		// Quiescent with no future event: completion, or the end
		// of a bounded run, or deadlock.
		if rt.limit != Forever && rt.limit > rt.now {
			rt.now = rt.limit
		}
		return false
	}
	next := q.runs[0].at
	if next > rt.limit {
		rt.now = rt.limit
		return false
	}
	if next > rt.now {
		rt.now = next
	}
	// Fire every timer due at this instant, in arming order: run by
	// run, and an event armed for this instant as it drains either joins
	// the last of its runs or opens one more. Each is out of the queue
	// before it fires, so its owner may arm it again from the callback.
	for len(q.runs) > 0 && q.runs[0].at <= rt.now {
		ev := q.take()
		switch {
		case ev.grant != nil:
			if n := ev.grant; n.run == ev.p && n.end <= rt.now {
				ev.grant, n.run = nil, nil
				rt.ready(ev.p)
				n.grantNext(rt)
			} else if n.run == ev.p { // a resumed grant's old end (grantNext)
				rt.arm(ev, n.end)
			}
		case ev.fn != nil:
			ev.fn(Sched{rt})
		default:
			if rt.Trace != nil {
				rt.trace("timer wakes %s", ev.p.name)
			}
			rt.ready(ev.p)
		}
	}
	return true
}

func (rt *Runtime) trace(format string, args ...any) {
	if rt.Trace != nil {
		rt.Trace(fmt.Sprintf("[%v] ", rt.now) + fmt.Sprintf(format, args...))
	}
}

// arm queues ev, which must not be pending, to fire at time at
// (clamped to now).
func (rt *Runtime) arm(ev *timerEv, at Time) {
	if ev.armed {
		owner := "a Timer"
		if ev.p != nil {
			owner = "process " + ev.p.name
		}
		panic("occam: " + owner + " armed its event while it was still pending")
	}
	if at < rt.now {
		at = rt.now
	}
	rt.seq++
	ev.armed = true
	rt.timers.push(at, rt.seq, ev)
}

// park blocks the calling process until another process or a timer
// makes it ready again. For a coroutine it returns when the wait is
// over; on Shutdown it panics with errKilled, which unwinds the body. For
// a stackless process it returns at once with the process marked parked
// and its successor picked, so a caller must have nothing left to do for
// the waiter once the wait is armed.
// kind and on describe what the process is waiting for
// (diagnostics); callers set p.word for the kinds that use it before
// calling.
func (rt *Runtime) park(p *Proc, kind statusKind, on waitee) {
	if p.parked {
		panic(fmt.Sprintf("occam: stackless process %q, already parked, reached another wait in the same turn", p.name))
	}
	p.stKind, p.on = kind, on
	if rt.Trace != nil {
		rt.trace("park %s: %s", p.name, p.statusText())
	}
	if p.stackless {
		// The step function returns to the dispatch loop, which finds
		// the successor where an exiting process would have left it.
		p.parked = true
		rt.handoff = rt.pick()
		return
	}
	// Self-handoff fast path: when the next process to run is the one
	// parking (its own timer fired during the clock advance, or it was
	// readied before parking), skip the coroutine switch entirely — the
	// paced-loop case (sleep, wake, sleep...) costs two queue operations.
	next := rt.pick()
	if next != p {
		rt.handoff = next
		p.body.(*coroutine).yield(struct{}{}) // to the dispatch loop; returns with the resume
		p.stKind = stRunning
	}
	if rt.killed {
		panic(errKilled)
	}
}

// Run drives the simulation until every process has exited or the
// system deadlocks. Equivalent to RunUntil(Forever).
func (rt *Runtime) Run() error { return rt.RunUntil(Forever) }

// RunFor drives the simulation for d of virtual time past the current
// instant.
func (rt *Runtime) RunFor(d time.Duration) error {
	return rt.RunUntil(rt.Now().Add(d))
}

// RunUntil drives the simulation until virtual time t. It returns when
// the system is quiescent with no event before t (clock set to t),
// when every process has exited (nil), or on deadlock (a
// *DeadlockError). It may be called repeatedly with increasing t; a t
// already past runs nothing, for the clock never goes back.
func (rt *Runtime) RunUntil(t Time) error {
	if rt.running {
		panic("occam: RunUntil re-entered")
	}
	if rt.killed {
		return errors.New("occam: runtime has been shut down")
	}
	if t < rt.now {
		return nil
	}
	rt.running = true
	rt.limit = t
	var stepping *Proc // the stackless process whose step is running
	defer func() {
		rt.running = false
		rt.limit = Forever
		if stepping != nil {
			// Its step panicked. A coroutine's panic needs no one to
			// name it: it comes out of resume retired already.
			rt.retire(stepping, recover())
		}
	}()
	// The dispatch loop. The process given the turn comes back having
	// parked or exited and left in handoff the process it picked to
	// follow it (nil: nothing can run before the limit). A stackless turn
	// is the call and two stores; this is the only place a step function
	// is called from, so one never runs on a coroutine's stack.
	for p := rt.pick(); p != nil; p, rt.handoff = rt.handoff, nil {
		if !p.stackless {
			rt.resumes++
			p.body.Step(p)
			continue
		}
		p.parked = false
		stepping = p
		p.body.Step(p)
		stepping = nil
		if !p.parked {
			rt.retire(p, nil)
		}
	}
	// A deadlock is only an error for an unbounded run: a bounded run
	// that goes quiescent early (server processes parked waiting for
	// input that will arrive in a later RunUntil) is a normal outcome.
	// An unbounded run only stops with the run queues and the timer
	// queue empty, so any process left is blocked for good.
	if t == Forever && len(rt.procs) > 0 {
		return &DeadlockError{Now: rt.now, Procs: rt.procDump()}
	}
	return nil
}

// procDump returns one diagnostic line per live process, sorted for
// stable output.
func (rt *Runtime) procDump() []string {
	lines := make([]string, 0, len(rt.procs))
	for _, p := range rt.procs {
		lines = append(lines, fmt.Sprintf("%s [%v] %s", p.name, p.pri, p.statusText()))
	}
	sort.Strings(lines)
	return lines
}

// Shutdown terminates all processes, unwinding the coroutines of those
// that have started and discarding those that have not, so none of
// their goroutines outlives it; a stackless process has nothing to
// unwind. The runtime cannot be used afterwards. Call it from the root
// goroutine after Run returns.
func (rt *Runtime) Shutdown() {
	if rt.killed {
		return
	}
	if rt.running {
		panic("occam: Shutdown during RunUntil")
	}
	rt.killed = true
	procs := rt.procs
	rt.procs = nil
	// A stopped process's yield returns into park, which panics with
	// errKilled and unwinds the body.
	for _, p := range procs {
		if co, ok := p.body.(*coroutine); ok {
			co.stop()
		}
	}
}

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	p.SleepUntil(p.rt.now.Add(d))
}

// SleepUntil blocks the process until virtual time t (the Occam
// "timer ? AFTER t"). Returns immediately if t is in the past.
func (p *Proc) SleepUntil(t Time) {
	rt := p.rt
	if t <= rt.now {
		return
	}
	rt.arm(&p.ev, t)
	p.word = int64(t)
	rt.park(p, stSleep, nil)
}

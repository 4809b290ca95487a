package occam

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// A stackless process is the coroutine it replaced: the same programs
// of waits are run by the same processes twice, once with every process
// started by Go and once by GoStep, and everything observable — each
// process's log of what its waits brought and when, the full scheduler
// trace, Switches, the clock, how the run ends and what is left on the
// channels — must be equal.

// stepUnit is the granularity of generated instants and durations.
const stepUnit = 50 * time.Microsecond

const (
	stepSleep = iota // SleepUntil an absolute instant: past, now or future
	stepCPU          // Consume, possibly of nothing
	stepWait         // wait on the process's own Signal
	stepRaise        // raise some process's Signal
	stepSend         // Send on the data channel
	stepRecv         // receive from it: Recv on a stack, RecvInto without one
	stepAlt          // PRI ALT, commands first, then data or a timeout
	stepCmd          // Send on the command channel
	stepYield        // Yield
	stepExit         // return
	stepOps
)

var stepOpNames = [stepOps]string{"sleep", "cpu", "wait", "raise", "send", "recv", "alt", "cmd", "yield", "exit"}

type stepOp struct{ code, arg byte }

// stepNet is the network one run is made of.
type stepNet struct {
	cpu        *Node
	data, cmds *Chan[int]
	sigs       []*Signal
	steps      []string
}

// stepProc interprets one process's program, in either form. Its fields
// are what the coroutine form would keep in locals.
type stepProc struct {
	net       *stepNet
	id        int
	stackless bool
	ops       []stepOp

	pc     int  // next op
	woken  bool // the op before pc parked the process: finish it first
	v, w   int
	idx    int
	guards []Guard
}

// start calls op's primitive. For a coroutine it returns with the wait
// over; a stackless process may come back parked.
func (sp *stepProc) start(p *Proc, op stepOp) {
	n, arg := sp.net, int(op.arg)
	units := func(k int) time.Duration { return time.Duration(k) * stepUnit }
	switch op.code {
	case stepSleep:
		p.SleepUntil(Time(units(arg % 50)))
	case stepCPU:
		p.Consume(units(arg % 8))
	case stepWait:
		n.sigs[sp.id].Wait(p)
	case stepRaise:
		n.sigs[arg%len(n.sigs)].Raise()
	case stepSend:
		n.data.Send(p, arg)
	case stepRecv:
		if sp.stackless {
			n.data.RecvInto(p, &sp.v)
		} else {
			sp.v = n.data.Recv(p)
		}
	case stepAlt:
		second := Recv(n.data, &sp.w)
		if arg&1 != 0 {
			second = After(p.Now().Add(units(arg >> 1 % 16)))
		}
		sp.v, sp.w = -1, -1
		sp.guards = []Guard{Recv(n.cmds, &sp.v), second}
		sp.idx = p.Alt(sp.guards...)
	case stepCmd:
		n.cmds.Send(p, arg)
	case stepYield:
		p.Yield()
	}
}

// finish logs what op's wait brought. woken says the wait parked a
// stackless process and this is its next turn: what a coroutine's Alt
// returns is fetched here.
func (sp *stepProc) finish(p *Proc, op stepOp, woken bool) {
	if woken && op.code == stepAlt {
		sp.idx = p.Alt(sp.guards...)
	}
	line := fmt.Sprintf("[%v] %s %s", p.Now(), p.name, stepOpNames[op.code])
	switch op.code {
	case stepRecv:
		line += fmt.Sprintf(" got %d", sp.v)
	case stepAlt:
		line += fmt.Sprintf(" guard %d: cmd %d data %d", sp.idx, sp.v, sp.w)
	}
	sp.net.steps = append(sp.net.steps, line)
}

// body is the program as a coroutine runs it.
func (sp *stepProc) body(p *Proc) {
	for _, op := range sp.ops {
		if op.code == stepExit {
			return
		}
		sp.start(p, op)
		sp.finish(p, op, false)
	}
}

// step is the program as the dispatch loop calls it, a turn at a time.
func (sp *stepProc) step(p *Proc) {
	if sp.woken {
		sp.woken = false
		sp.finish(p, sp.ops[sp.pc-1], true)
	}
	for sp.pc < len(sp.ops) {
		op := sp.ops[sp.pc]
		sp.pc++
		if op.code == stepExit {
			return
		}
		if sp.start(p, op); p.Parked() {
			sp.woken = true
			return
		}
		sp.finish(p, op, false)
	}
}

// stepResult is everything one run shows.
type stepResult struct {
	steps, trace []string
	end          string
}

// stepRun builds the network data describes and runs it in two bounded
// runs and an unbounded one.
//
//	data[0]  2–4 processes, all on one node
//	data[1]  bit i: process i is High
//	then two bytes an op — who and which, then its argument — dealt to
//	the processes' programs in order, 48 at most.
func stepRun(data []byte, stackless bool) stepResult {
	for len(data) < 2 {
		data = append(data, 0)
	}
	rt := NewRuntime()
	defer rt.Shutdown()
	n := &stepNet{cpu: NewNode("cpu"), data: NewChan[int](rt, "data"), cmds: NewChan[int](rt, "cmds")}
	procs := make([]*stepProc, 2+int(data[0])%3)
	for i := range procs {
		procs[i] = &stepProc{net: n, id: i, stackless: stackless}
		n.sigs = append(n.sigs, NewSignal(rt, fmt.Sprintf("sig%d", i)))
	}
	ops := data[2:]
	if len(ops) > 2*48 {
		ops = ops[:2*48]
	}
	for ; len(ops) >= 2; ops = ops[2:] {
		sp := procs[int(ops[0]>>4)%len(procs)]
		sp.ops = append(sp.ops, stepOp{ops[0] & 15 % stepOps, ops[1]})
	}
	var res stepResult
	rt.Trace = func(s string) { res.trace = append(res.trace, s) }
	for i, sp := range procs {
		name, pri := fmt.Sprintf("p%d", i), Priority(data[1]>>i&1)
		if stackless {
			rt.GoStep(name, n.cpu, pri, StepFunc(sp.step))
		} else {
			rt.Go(name, n.cpu, pri, sp.body)
		}
	}
	var errs []string
	for _, limit := range []Time{Time(time.Millisecond), Time(2500 * time.Microsecond), Forever} {
		errs = append(errs, fmt.Sprint(rt.RunUntil(limit)))
		res.trace = append(res.trace, "-- limit --")
	}
	res.steps = n.steps
	res.end = fmt.Sprintf("%s\nswitches %d, %d procs at %v, node busy %v\n", strings.Join(errs, "\n"), rt.Switches(), rt.NumProcs(), rt.Now(), n.cpu.busyFor)
	for _, c := range []*Chan[int]{n.data, n.cmds} {
		senders, receivers := c.parked.count(), 0
		if !c.sending {
			senders, receivers = 0, senders
		}
		res.end += fmt.Sprintf("%s: %d senders, %d receivers, %d alts waiting\n", c.name, senders, receivers, c.alts.count())
	}
	for _, s := range n.sigs {
		res.end += fmt.Sprintf("%s: raised %v, waited on %v\n", s.waitName(), s.set, s.p != nil)
	}
	if stackless && rt.Resumes() != 0 {
		res.end += fmt.Sprintf("%d coroutine resumes with every process stackless\n", rt.Resumes())
	}
	return res
}

// count returns how many waiters q holds.
func (q *fifo[T]) count() int {
	n := 0
	for w := q.head; w != nil; w = w.next {
		n++
	}
	return n
}

// checkStep runs data's network both ways and reports any difference.
func checkStep(t *testing.T, data []byte) {
	t.Helper()
	co, st := stepRun(data, false), stepRun(data, true)
	for _, c := range []struct {
		what    string
		co, got []string
	}{{"steps", co.steps, st.steps}, {"trace", co.trace, st.trace}} {
		for i := 0; i < len(c.co) || i < len(c.got); i++ {
			var l, g string
			if i < len(c.co) {
				l = c.co[i]
			}
			if i < len(c.got) {
				g = c.got[i]
			}
			if l != g {
				t.Fatalf("%v: %s differ at line %d:\n  coroutines: %s\n  stackless:  %s", data, c.what, i, l, g)
			}
		}
	}
	if co.end != st.end {
		t.Fatalf("%v: coroutines end:\n%s\nstackless processes end:\n%s", data, co.end, st.end)
	}
}

// op packs a process number and an op code into a program byte.
func op(who, code int) byte { return byte(who<<4 | code) }

// stepSeeds are hand-written programs for the cases that matter most;
// the fuzzer starts from them and from testdata/fuzz/FuzzStepProcess.
var stepSeeds = [][]byte{
	// The switch's shape: p0 (High) alternates over commands and data
	// three times while p2 sends a command and p1, after spending CPU,
	// data twice: the alternation parks and is woken by each kind, then
	// polls and finds the second datum's sender waiting.
	{1, 1, op(0, stepAlt), 0, op(1, stepCPU), 3, op(1, stepSend), 11, op(0, stepAlt), 0,
		op(2, stepSleep), 1, op(2, stepCmd), 22, op(1, stepSend), 12, op(0, stepAlt), 0},
	// A receiver parked first, a sender parked first, and one of each
	// that need not wait, at both priorities.
	{0, 2, op(0, stepRecv), 0, op(1, stepSleep), 4, op(1, stepSend), 5, op(1, stepSend), 6,
		op(0, stepSleep), 10, op(0, stepRecv), 0, op(0, stepRecv), 0, op(1, stepSend), 7},
	// A Low grant taken as three with a High process landing on its
	// boundaries, and a poll loop — a timeout alternation, then a command
	// alternation — ended by a command.
	{1, 2, op(0, stepCPU), 4, op(0, stepCPU), 4, op(0, stepCPU), 2, op(1, stepSleep), 3, op(1, stepCPU), 2,
		op(1, stepAlt), 1 | 2<<1, op(2, stepSleep), 17, op(2, stepCmd), 9, op(1, stepAlt), 1 | 4<<1, op(0, stepYield), 0},
	// Signals: raised before the wait, after it, and never; sleeps into
	// the past and to now; an exit with ops left; a deadlock at the end.
	{2, 5, op(0, stepRaise), 1, op(1, stepWait), 0, op(1, stepWait), 0, op(2, stepSleep), 0,
		op(2, stepRaise), 1, op(3, stepSleep), 6, op(3, stepSleep), 2, op(3, stepExit), 0, op(3, stepCmd), 1,
		op(0, stepWait), 0, op(2, stepAlt), 1 | 3<<1, op(2, stepRecv), 0},
	// A timeout alternation that polls its past deadline, Consume of
	// nothing, and a sleep until an instant already past.
	{0, 0, op(0, stepSleep), 9, op(0, stepAlt), 1, op(0, stepCPU), 0, op(0, stepSleep), 3,
		op(1, stepCPU), 7, op(1, stepAlt), 1 | 15<<1},
}

func TestStacklessProcessesAreTheCoroutinesTheyReplace(t *testing.T) {
	for _, data := range stepSeeds {
		checkStep(t, data)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 600; i++ {
		data := make([]byte, 2+2*rng.Intn(48))
		rng.Read(data)
		checkStep(t, data)
	}
	// The comparison is not vacuous: the first seed's alternation really
	// is woken by a command, then by data, then finds data waiting.
	res := stepRun(stepSeeds[0], true)
	got := strings.Join(res.steps, "\n")
	for _, want := range []string{
		"[t+50µs] p0 alt guard 0: cmd 22 data -1",
		"[t+150µs] p0 alt guard 1: cmd -1 data 11",
		"[t+150µs] p0 alt guard 1: cmd -1 data 12",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("seed 0 has no step %q; it ran as:\n%s", want, got)
		}
	}
}

// FuzzStepProcess searches for a program on which a stackless process
// and its coroutine part ways. Run longer with:
//
//	go test -fuzz=FuzzStepProcess -fuzztime=60s ./internal/occam
func FuzzStepProcess(f *testing.F) {
	for _, data := range stepSeeds {
		f.Add(data)
	}
	f.Fuzz(checkStep)
}

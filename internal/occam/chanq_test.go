package occam

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// A channel's queues against a reference model. The same programs of
// Send, Recv, RecvInto, TrySend, Alt (Recv guards, then a time guard
// or Skip), Sleep and exit are run by the same processes — some stackless,
// some coroutines — twice: once over Chans and once over refChans, the
// slices-and-copies queues Chan used to keep. Each process's log of what
// it got and when, the scheduler trace and how the run ends must be
// equal. The Chan run is also checked on its own: every value received
// was sent on that channel and is received once, and every recycled
// record on a free list holds no process, destination or value.

// qchan is what the programs use of a channel.
type qchan interface {
	Send(p *Proc, v int)
	RecvInto(p *Proc, dst *int)
	Recv(p *Proc) int
	TrySend(p *Proc, v int) bool
	guard(dst *int) Guard
}

type realChan struct{ *Chan[int] }

func (c realChan) guard(dst *int) Guard { return Recv(c.Chan, dst) }

// refChan is the reference: FIFO slices of parked senders, parked
// receivers and alternation registrations.
type refChan struct {
	name  string
	sendq []refWaiter
	recvq []refWaiter
	alts  []refWaiter
}

type refWaiter struct {
	p   *Proc
	v   int
	dst *int
	idx int
}

func (c *refChan) waitName() string { return c.name }

func (c *refChan) takeSend() int {
	w := c.sendq[0]
	c.sendq = c.sendq[1:]
	w.p.rt.ready(w.p)
	return w.v
}

func (c *refChan) handOver(v int) bool {
	if len(c.recvq) > 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[1:]
		*w.dst = v
		w.p.rt.ready(w.p)
		return true
	}
	for len(c.alts) > 0 {
		w := c.alts[0]
		c.alts = c.alts[1:]
		if !w.p.fired {
			*w.dst = v
			w.p.fire(w.idx)
			return true
		}
	}
	return false
}

func (c *refChan) Send(p *Proc, v int) {
	if c.handOver(v) {
		return
	}
	c.sendq = append(c.sendq, refWaiter{p: p, v: v})
	p.rt.park(p, stSend, c)
}

func (c *refChan) RecvInto(p *Proc, dst *int) {
	if len(c.sendq) > 0 {
		*dst = c.takeSend()
		return
	}
	c.recvq = append(c.recvq, refWaiter{p: p, dst: dst})
	p.rt.park(p, stRecv, c)
}

func (c *refChan) Recv(p *Proc) int {
	if len(c.sendq) == 0 {
		p.NeedsStack("Chan.Recv", c.name)
	}
	v := new(int)
	c.RecvInto(p, v)
	return *v
}

func (c *refChan) TrySend(p *Proc, v int) bool { return c.handOver(v) }

func (c *refChan) guard(dst *int) Guard { return &refGuard{c: c, dst: dst} }

type refGuard struct {
	c   *refChan
	dst *int
	p   *Proc
}

func (g *refGuard) poll(p *Proc) bool {
	if len(g.c.sendq) == 0 {
		return false
	}
	*g.dst = g.c.takeSend()
	return true
}

func (g *refGuard) enable(p *Proc, idx int) {
	g.p = p
	g.c.alts = append(g.c.alts, refWaiter{p: p, idx: idx, dst: g.dst})
}

func (g *refGuard) disable() {
	if g.p != nil {
		g.c.alts = slices.DeleteFunc(g.c.alts, func(w refWaiter) bool { return w.p == g.p })
		g.p = nil
	}
}

const (
	qSend = iota
	qRecv // Recv on a stack, RecvInto without one
	qRecvInto
	qTrySend
	qAlt
	qSleep
	qExit
	qOps
)

var qOpNames = [qOps]string{"send", "recv", "recvinto", "trysend", "alt", "sleep", "exit"}

type qOp struct{ code, ch, arg byte }

// qProc interprets one process's program over chans, in either form.
type qProc struct {
	id        int
	stackless bool
	ops       []qOp
	chans     []qchan
	log       *[]string
	sent      int

	pc     int
	woken  bool
	v      int
	vs     [2]int
	idx    int
	guards []Guard
}

// start calls op's primitive; a stackless process may come back parked.
func (q *qProc) start(p *Proc, op qOp) {
	c := q.chans[op.ch]
	switch op.code {
	case qSend:
		q.sent++
		c.Send(p, q.value())
	case qRecv:
		if q.stackless {
			c.RecvInto(p, &q.v)
		} else {
			q.v = c.Recv(p)
		}
	case qRecvInto:
		c.RecvInto(p, &q.v)
	case qTrySend:
		q.sent++
		q.idx = 0
		if c.TrySend(p, q.value()) {
			q.idx = 1
		}
	case qAlt:
		q.vs = [2]int{}
		q.guards = append(q.guards[:0], q.chans[0].guard(&q.vs[0]), q.chans[1].guard(&q.vs[1]))
		switch op.arg >> 1 % 3 {
		case 1:
			q.guards = append(q.guards, After(p.Now().Add(time.Duration(op.arg>>3%8)*50*time.Microsecond)))
		case 2:
			q.guards = append(q.guards, Skip())
		}
		q.idx = p.Alt(q.guards...)
	case qSleep:
		p.Sleep(time.Duration(op.arg%8) * 50 * time.Microsecond)
	}
}

// value is the unique value of the process's latest send: never zero.
func (q *qProc) value() int { return q.id*1000 + q.sent }

func (q *qProc) finish(p *Proc, op qOp, woken bool) {
	if woken && op.code == qAlt {
		q.idx = p.Alt(q.guards...)
	}
	line := fmt.Sprintf("[%v] %s %s c%d", p.Now(), p.name, qOpNames[op.code], op.ch)
	switch op.code {
	case qRecv, qRecvInto:
		line += fmt.Sprintf(" got %d", q.v)
	case qTrySend:
		line += fmt.Sprintf(" taken %d", q.idx)
	case qAlt:
		line += fmt.Sprintf(" guard %d: %d %d", q.idx, q.vs[0], q.vs[1])
	}
	*q.log = append(*q.log, line)
}

func (q *qProc) body(p *Proc) {
	for _, op := range q.ops {
		if op.code == qExit {
			return
		}
		q.start(p, op)
		q.finish(p, op, false)
	}
}

func (q *qProc) Step(p *Proc) {
	if q.woken {
		q.woken = false
		q.finish(p, q.ops[q.pc-1], true)
	}
	for q.pc < len(q.ops) {
		op := q.ops[q.pc]
		q.pc++
		if op.code == qExit {
			return
		}
		if q.start(p, op); p.Parked() {
			q.woken = true
			return
		}
		q.finish(p, op, false)
	}
}

// qRun runs data's programs over real channels or reference ones and
// returns the processes' log, the scheduler trace and the run's end. The
// real channels are returned for the checks of their own.
//
//	data[0]  2–5 processes
//	data[1]  bit i: process i is stackless
//	data[2]  bit i: process i is High
//	then three bytes an op — who and which, the channel, its argument —
//	dealt to the processes' programs in order, 64 at most.
func qRun(data []byte, ref bool) (log, trace []string, end string, chans []*Chan[int]) {
	for len(data) < 3 {
		data = append(data, 0)
	}
	rt := NewRuntime()
	defer rt.Shutdown()
	qs := make([]qchan, 2)
	for i := range qs {
		name := fmt.Sprintf("c%d", i)
		if ref {
			qs[i] = &refChan{name: name}
		} else {
			c := NewChan[int](rt, name)
			chans = append(chans, c)
			qs[i] = realChan{c}
		}
	}
	procs := make([]*qProc, 2+int(data[0])%4)
	for i := range procs {
		procs[i] = &qProc{id: i + 1, stackless: data[1]>>i&1 != 0, chans: qs, log: &log}
	}
	ops := data[3:]
	if len(ops) > 3*64 {
		ops = ops[:3*64]
	}
	for ; len(ops) >= 3; ops = ops[3:] {
		q := procs[int(ops[0]>>4)%len(procs)]
		q.ops = append(q.ops, qOp{ops[0] & 15 % qOps, ops[1] & 1, ops[2]})
	}
	rt.Trace = func(s string) { trace = append(trace, s) }
	for i, q := range procs {
		name, pri := fmt.Sprintf("p%d", q.id), Priority(data[2]>>i&1)
		if q.stackless {
			rt.GoStep(name, nil, pri, q)
		} else {
			rt.Go(name, nil, pri, q.body)
		}
	}
	var errs []string
	for _, limit := range []Time{Time(200 * time.Microsecond), Time(time.Millisecond), Forever} {
		errs = append(errs, fmt.Sprint(rt.RunUntil(limit)))
	}
	end = fmt.Sprintf("%s\nswitches %d, %d procs at %v", strings.Join(errs, "\n"), rt.Switches(), rt.NumProcs(), rt.Now())
	return log, trace, end, chans
}

// checkChanQueues runs data both ways and checks the real run.
func checkChanQueues(t *testing.T, data []byte) {
	t.Helper()
	log, trace, end, chans := qRun(data, false)
	refLog, refTrace, refEnd, _ := qRun(data, true)
	if !slices.Equal(log, refLog) {
		t.Fatalf("process logs differ from the reference model's:\n%s\nreference:\n%s", strings.Join(log, "\n"), strings.Join(refLog, "\n"))
	}
	if !slices.Equal(trace, refTrace) {
		t.Fatalf("scheduler traces differ from the reference model's:\n%s\nreference:\n%s", strings.Join(trace, "\n"), strings.Join(refTrace, "\n"))
	}
	if end != refEnd {
		t.Fatalf("run ended\n%s\nthe reference\n%s", end, refEnd)
	}
	// Every value received is one sent, received once: a recycled record
	// or cell that kept a stale value would show as a repeat or a zero.
	got := map[string]bool{}
	for _, l := range log {
		var v int
		if i := strings.Index(l, " got "); i >= 0 {
			fmt.Sscan(l[i+5:], &v)
		} else if i := strings.Index(l, " guard "); i >= 0 {
			var idx, a, b int
			fmt.Sscanf(l[i:], " guard %d: %d %d", &idx, &a, &b)
			if idx > 1 {
				continue
			}
			v = []int{a, b}[idx]
		} else {
			continue
		}
		k := fmt.Sprint(v)
		if v == 0 || got[k] {
			t.Fatalf("%q: value received twice or never sent", l)
		}
		got[k] = true
	}
	for _, c := range chans {
		for w := c.free; w != nil; w = w.next {
			if w.p != nil || w.dst != nil || w.v != 0 {
				t.Fatalf("%s: a recycled record holds process %v, destination %v, value %d", c.name, w.p, w.dst, w.v)
			}
		}
	}
}

// chanQueueSeeds cover what the queues must get right: receivers served
// in the order they parked, senders likewise, a PRI ALT over two ready
// channels, a registration left dead by a timeout, and Recv cells
// recycled across receivers.
var chanQueueSeeds = [][]byte{
	// p1 p2 p3 receive from c0 in turn, then p4 sends three values.
	{2, 0, 0, 0x01, 0, 0, 0x11, 0, 0, 0x21, 0, 0, 0x30, 0, 0, 0x30, 0, 0, 0x30, 0, 0},
	// The same with stackless receivers.
	{2, 7, 0, 0x01, 0, 0, 0x11, 0, 0, 0x21, 0, 0, 0x30, 0, 0, 0x30, 0, 0, 0x30, 0, 0},
	// Three senders park on c1, then p4 receives three times.
	{2, 0, 0, 0x00, 1, 0, 0x10, 1, 0, 0x20, 1, 0, 0x31, 1, 0, 0x32, 1, 0, 0x31, 1, 0},
	// Senders park on both channels; an alternation takes c0 first.
	{1, 4, 0, 0x00, 0, 0, 0x10, 1, 0, 0x25, 0, 1, 0x24, 0, 0, 0x24, 0, 0},
	// An alternation times out; its owner then receives on c1 while
	// sends arrive on both channels.
	{1, 1, 0, 0x04, 0, 8, 0x01, 1, 0, 0x15, 0, 4, 0x10, 0, 0, 0x10, 1, 0},
	// A SKIP-guarded alternation with nothing ready, then TrySends.
	{1, 2, 6, 0x04, 0, 4, 0x11, 0, 0, 0x03, 0, 0, 0x03, 0, 0},
}

func TestChanQueuesMatchTheReference(t *testing.T) {
	for _, seed := range chanQueueSeeds {
		checkChanQueues(t, seed)
	}
}

func FuzzChanQueues(f *testing.F) {
	for _, seed := range chanQueueSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkChanQueues(t, data)
	})
}

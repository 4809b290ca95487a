package occam

import "time"

// Node models one transputer's CPU. Processes account for computation
// by calling Proc.Consume, which occupies the node exclusively for a
// duration of virtual time; concurrent requests queue, high priority
// first, and a High request preempts a running Low grant (the
// transputer's two-level scheduler). Code outside Consume is free, so
// costs are attached explicitly where they matter — see the calibrated
// constants in internal/box.
type Node struct {
	name    string
	waiting []cpuReq
	busyFor time.Duration // accumulated busy time (utilisation metric)
	run     *Proc         // the process whose grant holds the node; nil when idle
	end     Time          // when run's grant ends
}

type cpuReq struct {
	p *Proc
	d time.Duration
}

// NewNode returns a new CPU resource named name.
func NewNode(name string) *Node {
	return &Node{name: name}
}

func (n *Node) waitName() string { return n.name }

// Consume occupies the process's node for d of virtual time, blocking
// the process until its grant completes. A request queues behind those
// of its priority, High ahead of Low, and a High one suspends a running
// Low grant at once; the remainder resumes when the High grants are
// done, ahead of other Low requests, so a Low computation is one
// Consume however long it is. With no node, Consume just sleeps.
func (p *Proc) Consume(d time.Duration) {
	if d <= 0 {
		return
	}
	n, rt := p.node, p.rt
	if n == nil {
		p.Sleep(d)
		return
	}
	if p.pri == Low {
		n.waiting = append(n.waiting, cpuReq{p, d})
	} else {
		i := 0
		for i < len(n.waiting) && n.waiting[i].p.pri == High {
			i++
		}
		if r := n.run; r != nil && r.pri == Low {
			n.insert(i, cpuReq{r, n.end.Sub(rt.now)})
			n.run = nil
		}
		n.insert(i, cpuReq{p, d})
	}
	if n.run == nil {
		n.grantNext(rt)
	}
	p.word = int64(d)
	rt.park(p, stCPU, n)
}

// grantNext starts the next queued request, its completion a grant
// event the scheduler completes inline. The node must be idle. A
// process holding a grant event resumes a suspended grant, counted when
// first granted; a pending event of it fires early and re-arms for the
// new end (advanceClock), as no event leaves the queue unfired.
func (n *Node) grantNext(rt *Runtime) {
	if len(n.waiting) == 0 {
		return
	}
	req := n.waiting[0]
	copy(n.waiting, n.waiting[1:])
	n.waiting[len(n.waiting)-1] = cpuReq{}
	n.waiting = n.waiting[:len(n.waiting)-1]
	n.run, n.end = req.p, rt.now.Add(req.d)
	ev := &req.p.ev
	if ev.grant == nil {
		n.busyFor += req.d
		ev.grant = n
	}
	if !ev.armed {
		rt.arm(ev, n.end)
	}
}

// insert queues req at place i.
func (n *Node) insert(i int, req cpuReq) {
	n.waiting = append(n.waiting, cpuReq{})
	copy(n.waiting[i+1:], n.waiting[i:])
	n.waiting[i] = req
}

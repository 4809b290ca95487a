package occam

import (
	"time"
)

// Node models one transputer's CPU. Processes account for computation
// by calling Proc.Consume, which occupies the node exclusively for a
// duration of virtual time; concurrent requests queue, high priority
// first (the transputer's two-level scheduler). Code outside Consume
// is free, so costs are attached explicitly where they matter — see
// the calibrated constants in internal/box.
type Node struct {
	rt      *Runtime
	name    string
	busy    bool
	waiting []cpuReq
	busyFor time.Duration // accumulated busy time (utilisation metric)
}

type cpuReq struct {
	p   *Proc
	d   time.Duration
	pri Priority
}

// NewNode returns a new CPU resource named name.
func NewNode(rt *Runtime, name string) *Node {
	return &Node{rt: rt, name: name}
}

func (n *Node) waitName() string { return n.name }

// Consume occupies the process's node for d of virtual time, blocking
// the process until its grant completes. If the node is busy the
// request queues behind earlier requests; higher-priority processes
// are granted first. Consume on a process with no node just sleeps.
// A long Low computation that must let High processes onto the node
// takes its cost as several Consumes, as the transputer's scheduler
// would have it.
func (p *Proc) Consume(d time.Duration) {
	if d <= 0 {
		return
	}
	n := p.node
	if n == nil {
		p.Sleep(d)
		return
	}
	n.insert(cpuReq{p: p, d: d, pri: p.pri})
	if !n.busy {
		n.grantNext()
	}
	p.word = int64(d)
	n.rt.park(p, stCPU, n)
}

// insert queues req, high priority ahead of low, FIFO within a
// priority.
func (n *Node) insert(req cpuReq) {
	if req.pri == High {
		// Insert after the last queued High request.
		i := 0
		for i < len(n.waiting) && n.waiting[i].pri == High {
			i++
		}
		n.waiting = append(n.waiting, cpuReq{})
		copy(n.waiting[i+1:], n.waiting[i:])
		n.waiting[i] = req
		return
	}
	n.waiting = append(n.waiting, req)
}

// grantNext starts the next queued request, scheduling its completion
// as a grant event the scheduler completes inline (no closure).
// The node must be idle.
func (n *Node) grantNext() {
	if len(n.waiting) == 0 {
		return
	}
	req := n.waiting[0]
	copy(n.waiting, n.waiting[1:])
	n.waiting[len(n.waiting)-1] = cpuReq{}
	n.waiting = n.waiting[:len(n.waiting)-1]
	n.busy = true
	n.busyFor += req.d
	req.p.ev.grant = n
	n.rt.arm(&req.p.ev, n.rt.now.Add(req.d))
}

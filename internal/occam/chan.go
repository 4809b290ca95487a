package occam

// Chan is an Occam rendezvous channel carrying values of type T.
// Send blocks until a receiver takes the value; Recv blocks until a
// sender offers one. Channels are unbuffered: communication is the
// synchronisation, exactly as on the transputer.
//
// Unlike Occam, any number of processes may wait to send or receive on
// the same channel; waiters are served in FIFO order. This is used by
// Pandora-style fan-in (many producers into a switch input).
//
// Send-waiter and alternation-registration records, and the cells Recv
// receives into, are recycled on per-channel free lists: the runtime
// runs one process at a time, so the lists need no synchronisation, and
// a data channel at steady state allocates nothing per transfer.
type Chan[T any] struct {
	rt    *Runtime
	name  string
	sendq []*sendWaiter[T]
	recvq []recvWaiter[T]
	alts  []*altReg[T]

	sendFree []*sendWaiter[T]
	regFree  []*altReg[T]
	cells    []*T
}

type sendWaiter[T any] struct {
	p *Proc
	v T
}

// recvWaiter is a process parked in RecvInto and where the sender is to
// put its value: the receiver has nothing to do when it wakes.
type recvWaiter[T any] struct {
	p   *Proc
	dst *T
}

type altReg[T any] struct {
	a   *altState
	idx int
	dst *T
}

// NewChan returns a new rendezvous channel on rt with a diagnostic
// name.
func NewChan[T any](rt *Runtime, name string) *Chan[T] {
	return &Chan[T]{rt: rt, name: name}
}

// Name returns the channel's diagnostic name.
func (c *Chan[T]) Name() string { return c.name }

// getSend / putSend recycle send waiters. A waiter is
// freed by whoever pops it from sendq (the popper reads v before the
// sender resumes, and the sender never touches the record again).
func (c *Chan[T]) getSend(p *Proc, v T) *sendWaiter[T] {
	if n := len(c.sendFree); n > 0 {
		w := c.sendFree[n-1]
		c.sendFree = c.sendFree[:n-1]
		w.p, w.v = p, v
		return w
	}
	return &sendWaiter[T]{p: p, v: v}
}

func (c *Chan[T]) putSend(w *sendWaiter[T]) {
	var zero T
	w.p, w.v = nil, zero
	c.sendFree = append(c.sendFree, w)
}

// getReg / putReg recycle alternation registrations. A registration is
// freed either when a sender pops it (takeAlt) or when the owning Alt
// disables its guards (removeAlt); the two are mutually exclusive for
// any one record because takeAlt removes it from alts.
func (c *Chan[T]) getReg(a *altState, idx int, dst *T) *altReg[T] {
	if n := len(c.regFree); n > 0 {
		r := c.regFree[n-1]
		c.regFree = c.regFree[:n-1]
		r.a, r.idx, r.dst = a, idx, dst
		return r
	}
	return &altReg[T]{a: a, idx: idx, dst: dst}
}

func (c *Chan[T]) putReg(r *altReg[T]) {
	r.a, r.dst = nil, nil
	c.regFree = append(c.regFree, r)
}

// popSend removes and returns the first queued sender. Caller owns the
// returned waiter (must putSend it after reading v).
func (c *Chan[T]) popSend() *sendWaiter[T] {
	w := c.sendq[0]
	copy(c.sendq, c.sendq[1:])
	c.sendq[len(c.sendq)-1] = nil
	c.sendq = c.sendq[:len(c.sendq)-1]
	return w
}

// takeSend removes the first queued sender, readies it and returns what
// it offered. sendq must not be empty.
func (c *Chan[T]) takeSend() T {
	w := c.popSend()
	v := w.v
	c.rt.ready(w.p)
	c.putSend(w)
	return v
}

// handOver gives v to whoever has waited longest to receive it — a
// process parked in RecvInto, else an alternation with a Recv guard on
// the channel — by writing it where the waiter said and readying the
// waiter, and reports whether anyone was waiting.
func (c *Chan[T]) handOver(v T) bool {
	if len(c.recvq) > 0 {
		w := c.recvq[0]
		copy(c.recvq, c.recvq[1:])
		c.recvq[len(c.recvq)-1] = recvWaiter[T]{}
		c.recvq = c.recvq[:len(c.recvq)-1]
		*w.dst = v
		c.rt.ready(w.p)
		return true
	}
	if a, idx, dst := c.takeAlt(); a != nil {
		*dst = v
		a.chosen = idx
		c.rt.ready(a.p)
		return true
	}
	return false
}

// Send offers v on the channel, blocking until a receiver (direct or
// via Alt) takes it.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.handOver(v) {
		return
	}
	c.sendq = append(c.sendq, c.getSend(p, v))
	c.rt.park(p, stSend, c.name)
}

// takeAlt removes the first live (unfired) alternation registration,
// marking it fired, and returns its state, guard index and destination.
// Dead registrations encountered on the way are recycled.
func (c *Chan[T]) takeAlt() (a *altState, idx int, dst *T) {
	for len(c.alts) > 0 {
		reg := c.alts[0]
		copy(c.alts, c.alts[1:])
		c.alts[len(c.alts)-1] = nil
		c.alts = c.alts[:len(c.alts)-1]
		a, idx, dst = reg.a, reg.idx, reg.dst
		fired := a.fired
		c.putReg(reg)
		if !fired {
			a.fired = true
			return a, idx, dst
		}
	}
	return nil, 0, nil
}

// RecvInto receives a value from the channel into *dst, blocking until
// a sender offers one. The sender that ends the wait writes *dst itself,
// so a stackless process parked here finds the value there at its next
// turn; dst must stay valid until then.
func (c *Chan[T]) RecvInto(p *Proc, dst *T) {
	if len(c.sendq) > 0 {
		*dst = c.takeSend()
		return
	}
	c.recvq = append(c.recvq, recvWaiter[T]{p, dst})
	c.rt.park(p, stRecv, c.name)
}

// Recv receives a value from the channel, blocking until a sender
// offers one: RecvInto for a process with a stack to return the value
// on. What a parked receiver's sender writes to cannot be on that stack,
// so the local is a recycled cell.
func (c *Chan[T]) Recv(p *Proc) T {
	if len(c.sendq) == 0 {
		p.NeedsStack("Chan.Recv", c.name)
	}
	var cell *T
	if n := len(c.cells); n > 0 {
		cell, c.cells = c.cells[n-1], c.cells[:n-1]
	} else {
		cell = new(T)
	}
	c.RecvInto(p, cell)
	var zero T
	v := *cell
	*cell = zero
	c.cells = append(c.cells, cell)
	return v
}

// TrySend offers v without blocking; it reports whether a waiting
// receiver took the value. (Not an Occam primitive, but the natural
// dual of a SKIP-guarded alternation; used where the paper's processes
// "do not send a segment if the next process down the line is not
// ready", §2.2 principle 5.)
func (c *Chan[T]) TrySend(p *Proc, v T) bool { return c.handOver(v) }

// removeAlt deletes every registration belonging to a, recycling the
// records.
func (c *Chan[T]) removeAlt(a *altState) {
	out := c.alts[:0]
	for _, reg := range c.alts {
		if reg.a != a {
			out = append(out, reg)
		} else {
			c.putReg(reg)
		}
	}
	for i := len(out); i < len(c.alts); i++ {
		c.alts[i] = nil
	}
	c.alts = out
}

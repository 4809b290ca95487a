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
// Every waiter is a record on an intrusive FIFO list: a process parked
// in Send with the value it offers, one parked in RecvInto or Recv with
// where its value is to go, or an alternation with a Recv guard on the
// channel. Records are recycled on the channel's free list: the runtime
// runs one process at a time, so the list needs no synchronisation, and
// a data channel at steady state allocates nothing per transfer.
type Chan[T any] struct {
	name string
	// parked is the processes parked in Send, or those parked in
	// RecvInto and Recv: never both, for a sender that finds a receiver
	// parked hands its value over and a receiver that finds a sender
	// takes its value. sending says which.
	parked  fifo[T]
	sending bool
	alts    fifo[T]    // registrations of alternations with a Recv guard here
	free    *waiter[T] // recycled records, linked through next
}

// waiter is one record on a channel's lists.
type waiter[T any] struct {
	next *waiter[T]
	p    *Proc
	dst  *T  // where a receiver's or an alternation's value goes
	idx  int // an alternation's guard index
	v    T   // a sender's value; the cell a Recv receives into
}

// fifo is an intrusive FIFO list of waiters.
type fifo[T any] struct{ head, tail *waiter[T] }

func (q *fifo[T]) push(w *waiter[T]) {
	if q.tail == nil {
		q.head = w
	} else {
		q.tail.next = w
	}
	q.tail = w
}

// pop removes and returns the first waiter. The list must not be
// empty.
func (q *fifo[T]) pop() *waiter[T] {
	w := q.head
	if q.head = w.next; q.head == nil {
		q.tail = nil
	}
	w.next = nil
	return w
}

// NewChan returns a new rendezvous channel on rt with a diagnostic
// name.
func NewChan[T any](rt *Runtime, name string) *Chan[T] {
	return &Chan[T]{name: name}
}

func (c *Chan[T]) waitName() string { return c.name }

// get returns a record for p, recycled if the channel has one. A
// record is put back by whoever takes it off a list: the popper of a
// sender reads v first, and a parked process never touches its record
// again once it has been taken.
func (c *Chan[T]) get(p *Proc, idx int, dst *T) *waiter[T] {
	w := c.free
	if w == nil {
		return &waiter[T]{p: p, idx: idx, dst: dst}
	}
	c.free, w.next = w.next, nil
	w.p, w.idx, w.dst = p, idx, dst
	return w
}

// put recycles w, cleared so that the free list holds no process and
// no value.
func (c *Chan[T]) put(w *waiter[T]) {
	var zero T
	w.p, w.dst, w.v = nil, nil, zero
	w.next, c.free = c.free, w
}

// takeSend removes the first parked sender, readies it and returns what
// it offered. c.sending must be set.
func (c *Chan[T]) takeSend() T {
	w := c.parked.pop()
	c.sending = c.parked.head != nil
	v := w.v
	w.p.rt.ready(w.p)
	c.put(w)
	return v
}

// handOver gives v to whoever has waited longest to receive it — a
// process parked in RecvInto, else an alternation with a Recv guard on
// the channel — by writing it where the waiter said and readying the
// waiter, and reports whether anyone was waiting.
func (c *Chan[T]) handOver(v T) bool {
	if c.parked.head != nil && !c.sending {
		w := c.parked.pop()
		*w.dst = v
		w.p.rt.ready(w.p)
		c.put(w)
		return true
	}
	for c.alts.head != nil {
		w := c.alts.pop()
		p, idx, dst := w.p, w.idx, w.dst
		c.put(w)
		// A registration whose alternation another guard has claimed
		// is dead: recycled and passed over.
		if !p.fired {
			*dst = v
			p.fire(idx)
			return true
		}
	}
	return false
}

// Send offers v on the channel, blocking until a receiver (direct or
// via Alt) takes it.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.handOver(v) {
		return
	}
	w := c.get(p, 0, nil)
	w.v = v
	c.parked.push(w)
	c.sending = true
	p.rt.park(p, stSend, c)
}

// RecvInto receives a value from the channel into *dst, blocking until
// a sender offers one. The sender that ends the wait writes *dst itself,
// so a stackless process parked here finds the value there at its next
// turn; dst must stay valid until then.
func (c *Chan[T]) RecvInto(p *Proc, dst *T) {
	if c.sending {
		*dst = c.takeSend()
		return
	}
	c.parked.push(c.get(p, 0, dst))
	p.rt.park(p, stRecv, c)
}

// Recv receives a value from the channel, blocking until a sender
// offers one: RecvInto for a process with a stack to return the value
// on. What a parked receiver's sender writes to cannot be on that stack,
// so the cell is the receiver's own record, which stays off the free
// list until the value is read out of it.
func (c *Chan[T]) Recv(p *Proc) T {
	if c.sending {
		return c.takeSend()
	}
	p.NeedsStack("Chan.Recv", c.name)
	w := c.get(p, 0, nil)
	cell := c.get(nil, 0, nil)
	w.dst = &cell.v
	c.parked.push(w)
	p.rt.park(p, stRecv, c)
	v := cell.v
	c.put(cell)
	return v
}

// Pending reports whether a sender is parked on the channel: whether a
// Recv, or an alternation's Recv guard, would take a value at once.
func (c *Chan[T]) Pending() bool { return c.sending }

// TrySend offers v without blocking; it reports whether a waiting
// receiver took the value. (Not an Occam primitive, but the natural
// dual of a SKIP-guarded alternation; used where the paper's processes
// "do not send a segment if the next process down the line is not
// ready", §2.2 principle 5.)
func (c *Chan[T]) TrySend(p *Proc, v T) bool { return c.handOver(v) }

// removeAlt deletes every registration belonging to p's alternation,
// recycling the records.
func (c *Chan[T]) removeAlt(p *Proc) {
	var kept fifo[T]
	for c.alts.head != nil {
		if w := c.alts.pop(); w.p == p {
			c.put(w)
		} else {
			kept.push(w)
		}
	}
	c.alts = kept
}

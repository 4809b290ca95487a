package occam

// Guard is one alternative of a PRI ALT. Construct guards with Recv
// and Skip.
type Guard interface {
	// poll attempts to fire the guard immediately.
	poll(p *Proc) bool
	// enable registers the guard to fire later for p, whose alternation
	// state (Proc.fired, Proc.chosen) the first guard to fire claims.
	enable(p *Proc, idx int)
	// disable removes the registration after the alt completes.
	disable()
}

// Alt performs a prioritised alternation (Occam PRI ALT) over the
// guards and returns the index of the one that fired. Guards are
// polled in order, so earlier guards win when several are ready — the
// property Pandora relies on to keep command channels ahead of data
// channels (principle 4). With no ready guard the process blocks until
// one fires.
//
// Guards are reusable: a hot loop may build its guard slice once and
// pass the same slice (and guard values) to every Alt.
//
// Alt is the one primitive with work left after the wake: the guards
// that did not fire are still registered. A stackless process it has to
// park gets -1 back, and at its next turn calls Alt again with the same
// guards, which removes them and returns the index; the fired guard's
// value is in its destination by then.
func (p *Proc) Alt(guards ...Guard) int {
	if len(guards) == 0 {
		panic("occam: Alt with no guards")
	}
	if !p.waiting {
		for i, g := range guards {
			if g.poll(p) {
				return i
			}
		}
		p.fired, p.chosen = false, -1
		for i, g := range guards {
			g.enable(p, i)
		}
		p.word = int64(len(guards))
		p.rt.park(p, stAlt, nil)
		if p.parked {
			p.waiting = true
			return -1
		}
	}
	p.waiting = false
	for _, g := range guards {
		g.disable()
	}
	if p.chosen < 0 {
		panic("occam: alt woke without a fired guard")
	}
	return int(p.chosen)
}

// fire claims p's alternation for guard idx and readies p, unless
// another guard has fired already.
func (p *Proc) fire(idx int) {
	if !p.fired {
		p.fired, p.chosen = true, int32(idx)
		p.rt.ready(p)
	}
}

// recvGuard fires when ch has a sender; the value lands in *dst.
type recvGuard[T any] struct {
	ch  *Chan[T]
	dst *T
	p   *Proc // whose alternation the guard is enabled in; nil when it is not
}

// Recv returns a guard that fires when a value can be received from
// ch, storing it in *dst.
func Recv[T any](ch *Chan[T], dst *T) Guard {
	return &recvGuard[T]{ch: ch, dst: dst}
}

func (g *recvGuard[T]) poll(p *Proc) bool {
	c := g.ch
	if !c.sending {
		return false
	}
	*g.dst = c.takeSend()
	return true
}

func (g *recvGuard[T]) enable(p *Proc, idx int) {
	g.p = p
	g.ch.alts.push(g.ch.get(p, idx, g.dst))
}

func (g *recvGuard[T]) disable() {
	if g.p != nil {
		g.ch.removeAlt(g.p)
		g.p = nil
	}
}

// skipGuard always fires (Occam SKIP): as the last guard it makes the
// alternation non-blocking.
type skipGuard struct{}

// Skip returns a guard that is always ready. Place it last to poll the
// other guards without blocking.
func Skip() Guard { return skipGuard{} }

func (skipGuard) poll(*Proc) bool { return true }
func (skipGuard) enable(*Proc, int) {
	// A reachable enabled SKIP fires at once; Alt polls guards first,
	// so enable is only reached if an earlier guard also fired — which
	// cannot happen. Guard against misuse anyway.
	panic("occam: Skip guard enabled; place Skip last")
}
func (skipGuard) disable() {}

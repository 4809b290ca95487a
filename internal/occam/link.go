package occam

import (
	"fmt"
	"time"
)

// Link models an Inmos transputer link: a unidirectional point-to-point
// channel with a serial bandwidth (5, 10 or 20 Mbit/s on real
// hardware; Pandora used 20 Mbit/s links and 100 Mbit/s FIFOs, §1.1).
//
// A transfer occupies the link for size×8/bandwidth of virtual time;
// transfers are serialised, so a large video message delays a
// following audio message — exactly the effect the paper measures in
// §4.2 ("video segments can hold up following audio segments,
// introducing up to 20ms of jitter").
//
// The receive side is an ordinary rendezvous channel, held in the link
// and named by the link's name, so a receiver may include the link in
// an alternation via In().
type Link[T any] struct {
	rt        *Runtime
	bandwidth int64 // bits per second
	ch        Chan[T]
	busyUntil Time
	bytesSent uint64
}

// NewLink returns a link with the given bandwidth in bits per second.
func NewLink[T any](rt *Runtime, name string, bitsPerSecond int64) *Link[T] {
	if bitsPerSecond <= 0 {
		panic("occam: link bandwidth must be positive")
	}
	return &Link[T]{
		rt:        rt,
		bandwidth: bitsPerSecond,
		ch:        Chan[T]{name: name},
	}
}

// BytesSent returns the total payload bytes transferred.
func (l *Link[T]) BytesSent() uint64 { return l.bytesSent }

// TransferTime returns how long a message of size bytes occupies the
// link.
func (l *Link[T]) TransferTime(size int) time.Duration {
	return time.Duration(int64(size) * 8 * int64(time.Second) / l.bandwidth)
}

// Send transmits v, which is accounted as size bytes on the wire. The
// sender is blocked while the link is busy with earlier transfers,
// then for the transfer time, then until the receiver accepts the
// value (link DMA plus rendezvous). That is two waits, Occupy and then
// Rendezvous, and a stackless process takes them as two.
func (l *Link[T]) Send(p *Proc, v T, size int) {
	p.NeedsStack("Link.Send", l.ch.name)
	l.Occupy(p, size)
	l.Rendezvous(p, v)
}

// Rendezvous is the untimed half of Send: it offers v to the receiver,
// blocking until it is taken.
func (l *Link[T]) Rendezvous(p *Proc, v T) { l.ch.Send(p, v) }

// Occupy is the timed half of Send: it books the link for a transfer of
// size bytes behind any earlier ones and blocks the sender until the
// transfer is done. A sender whose receiver is a passive structure on
// the far board — it spends no time and waits on nothing else — hands
// the message over by a call once Occupy returns, instead of a
// rendezvous with a process that would only make that call.
func (l *Link[T]) Occupy(p *Proc, size int) {
	if size < 0 {
		panic("occam: negative link transfer size")
	}
	start := l.rt.now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	done := start.Add(l.TransferTime(size))
	l.busyUntil = done
	l.bytesSent += uint64(size)
	p.SleepUntil(done)
}

// Recv receives the next message from the link, blocking until one
// arrives.
func (l *Link[T]) Recv(p *Proc) T { return l.ch.Recv(p) }

// RecvInto receives the next message from the link into *dst, as
// Chan.RecvInto does.
func (l *Link[T]) RecvInto(p *Proc, dst *T) { l.ch.RecvInto(p, dst) }

func (l *Link[T]) String() string {
	return fmt.Sprintf("link %s @%d bit/s", l.ch.name, l.bandwidth)
}

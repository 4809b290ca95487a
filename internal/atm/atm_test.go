package atm

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
)

// audioWire encodes a one-block audio segment with the given sequence
// number into pl.
func audioWire(pl *segment.WirePool, seq uint32) segment.Wire {
	return pl.Encode(segment.NewAudio(seq, 0, [][]byte{make([]byte, segment.BlockSamples)}))
}

// sendLog is a test's own record of when it sent each message on one
// circuit, and of each arrival's latency. A circuit delivers in order,
// so the nth arrival is the nth send.
type sendLog struct {
	sent []occam.Time
	lat  *obs.Histogram
}

func newSendLog() *sendLog { return &sendLog{lat: obs.NewHistogram()} }

// send records m's send time and sends it from h.
func (l *sendLog) send(p *occam.Proc, h *Host, m Message) {
	l.sent = append(l.sent, p.Now())
	h.Send(p, m)
}

// arrived records the latency of the next arrival.
func (l *sendLog) arrived(p *occam.Proc) {
	l.lat.Observe(p.Now().Sub(l.sent[l.lat.Count()]))
}

// drain starts a process that takes every arrival on a host, counting
// them and, given the sender's log, recording their latencies.
func drain(rt *occam.Runtime, h *Host, log *sendLog, count *int) {
	rt.Go(h.nm+".drain", nil, occam.High, func(p *occam.Proc) {
		for {
			h.Rx.Recv(p)
			if log != nil {
				log.arrived(p)
			}
			if count != nil {
				*count++
			}
		}
	})
}

func TestDirectCircuitDelivers(t *testing.T) {
	rt := occam.NewRuntime()
	net := New(rt)
	a := net.AddHost("a")
	b := net.AddHost("b")
	l := net.AddLink("ab", LinkConfig{Bandwidth: 100_000_000})
	net.OpenCircuit(7, a, b, l)

	pool := segment.NewWirePool()
	var got []Message
	rt.Go("rx", nil, occam.High, func(p *occam.Proc) {
		for {
			got = append(got, b.Rx.Recv(p))
		}
	})
	rt.Go("tx", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			w := audioWire(pool, uint32(i))
			if err := a.Send(p, Message{VCI: 7, Size: 100, W: w}); err != nil {
				w.Release()
				t.Error(err)
			}
		}
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if len(got) != 5 {
		t.Fatalf("delivered %d of 5", len(got))
	}
	for i, m := range got {
		if m.W.Seq() != uint32(i) {
			t.Fatalf("reordered: %v", got)
		}
		if m.VCI != 7 {
			t.Fatalf("VCI %d", m.VCI)
		}
		m.W.Release()
	}
	if l.Stats().Forwarded != 5 || l.Stats().Bytes != 500 {
		t.Fatalf("link stats %+v", l.Stats())
	}
	if pool.FreeLen() != 5 {
		t.Fatalf("%d of 5 wires returned to the pool", pool.FreeLen())
	}
}

func TestTransmissionAndPropagationDelay(t *testing.T) {
	rt := occam.NewRuntime()
	net := New(rt)
	a := net.AddHost("a")
	b := net.AddHost("b")
	// 1000 bytes at 8 Mbit/s = 1 ms, plus 500 µs propagation.
	l := net.AddLink("ab", LinkConfig{Bandwidth: 8_000_000, Propagation: 500 * time.Microsecond})
	net.OpenCircuit(1, a, b, l)
	log := newSendLog()
	drain(rt, b, log, nil)
	rt.Go("tx", nil, occam.Low, func(p *occam.Proc) {
		log.send(p, a, Message{VCI: 1, Size: 1000})
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if log.lat.Count() != 1 || log.lat.Min() != 1500*time.Microsecond {
		t.Fatalf("latency %v, want 1.5ms", log.lat.Min())
	}
}

func TestCrossTrafficCausesJitter(t *testing.T) {
	// The §4.2 effect, at network level: audio sharing a link with
	// bursty video sees queueing jitter; audio alone does not.
	run := func(withVideo bool) time.Duration {
		rt := occam.NewRuntime()
		net := New(rt)
		a := net.AddHost("a")
		b := net.AddHost("b")
		l := net.AddLink("shared", LinkConfig{Bandwidth: 10_000_000})
		net.OpenCircuit(1, a, b, l)
		net.OpenCircuit(2, a, b, l)
		log := newSendLog()
		rt.Go("rx", nil, occam.High, func(p *occam.Proc) {
			for {
				if m := b.Rx.Recv(p); m.VCI == 1 {
					log.arrived(p)
				}
			}
		})
		rt.Go("audio", nil, occam.Low, func(p *occam.Proc) {
			for i := 0; i < 200; i++ {
				p.Sleep(4 * time.Millisecond)
				log.send(p, a, Message{VCI: 1, Size: 68})
			}
		})
		if withVideo {
			rt.Go("video", nil, occam.Low, func(p *occam.Proc) {
				for i := 0; i < 20; i++ {
					p.Sleep(40 * time.Millisecond)
					a.Send(p, Message{VCI: 2, Size: 16000}) // 12.8 ms at 10 Mbit/s
				}
			})
		}
		if err := rt.RunUntil(occam.Time(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		rt.Shutdown()
		return log.lat.Jitter()
	}
	quiet := run(false)
	busy := run(true)
	if quiet > time.Millisecond {
		t.Fatalf("audio-only jitter %v", quiet)
	}
	if busy < 5*time.Millisecond {
		t.Fatalf("cross-traffic jitter %v, want ≥ 5ms (one video transmission ≈ 12.8ms)", busy)
	}
}

func TestMultiHopPath(t *testing.T) {
	rt := occam.NewRuntime()
	net := New(rt)
	a := net.AddHost("a")
	b := net.AddHost("b")
	var hops []*Link
	for _, nm := range []string{"h1", "h2", "h3"} {
		hops = append(hops, net.AddLink(nm, LinkConfig{
			Bandwidth:   10_000_000,
			Propagation: time.Millisecond,
		}))
	}
	net.OpenCircuit(5, a, b, hops...)
	log := newSendLog()
	drain(rt, b, log, nil)
	rt.Go("tx", nil, occam.Low, func(p *occam.Proc) {
		log.send(p, a, Message{VCI: 5, Size: 1000}) // 0.8 ms per hop
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	want := 3 * (800*time.Microsecond + time.Millisecond)
	if log.lat.Count() != 1 || log.lat.Min() != want {
		t.Fatalf("3-hop latency %v, want %v", log.lat.Min(), want)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	rt := occam.NewRuntime()
	net := New(rt)
	a := net.AddHost("a")
	b := net.AddHost("b")
	// Slow link, tiny queue: a burst must overflow.
	l := net.AddLink("slow", LinkConfig{Bandwidth: 1_000_000, QueueLimit: 4})
	net.OpenCircuit(1, a, b, l)
	received := 0
	drain(rt, b, nil, &received)
	rt.Go("burst", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 50; i++ {
			a.Send(p, Message{VCI: 1, Size: 1000}) // 8 ms each; burst at t=0
		}
	})
	if err := rt.RunUntil(occam.Time(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	st := l.Stats()
	if st.QueueDrops == 0 {
		t.Fatal("no queue drops under burst overload")
	}
	if received+int(st.QueueDrops) != 50 {
		t.Fatalf("received %d + dropped %d != 50", received, st.QueueDrops)
	}
}

func TestDropPathsReleaseWires(t *testing.T) {
	// Every message carries one wire reference; whether a message is
	// delivered (receiver releases) or dropped at the queue (link
	// releases), all storage must come back to the pool.
	rt := occam.NewRuntime()
	net := New(rt)
	a := net.AddHost("a")
	b := net.AddHost("b")
	l := net.AddLink("slow", LinkConfig{Bandwidth: 1_000_000, QueueLimit: 4})
	net.OpenCircuit(1, a, b, l)
	pool := segment.NewWirePool()
	rt.Go("rx", nil, occam.High, func(p *occam.Proc) {
		for {
			m := b.Rx.Recv(p)
			m.W.Release()
		}
	})
	rt.Go("burst", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 50; i++ {
			a.Send(p, Message{VCI: 1, Size: 1000, W: audioWire(pool, uint32(i))})
		}
	})
	if err := rt.RunUntil(occam.Time(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if l.Stats().QueueDrops == 0 {
		t.Fatal("no queue drops under burst overload")
	}
	// Every distinct storage record the pool ever allocated must be
	// back on the free list: a leak on either path would strand one.
	if pool.FreeLen() != int(pool.News) {
		t.Fatalf("%d of %d wire records returned to the pool", pool.FreeLen(), pool.News)
	}
}

func TestLossInjectionDeterministic(t *testing.T) {
	run := func() uint64 {
		rt := occam.NewRuntime()
		net := New(rt)
		a := net.AddHost("a")
		b := net.AddHost("b")
		l := net.AddLink("lossy", LinkConfig{Bandwidth: 100_000_000, LossRate: 0.1, Seed: 99})
		net.OpenCircuit(1, a, b, l)
		drain(rt, b, nil, nil)
		rt.Go("tx", nil, occam.Low, func(p *occam.Proc) {
			for i := 0; i < 1000; i++ {
				p.Sleep(100 * time.Microsecond)
				a.Send(p, Message{VCI: 1, Size: 68})
			}
		})
		if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
			t.Fatal(err)
		}
		rt.Shutdown()
		return l.Stats().LossDrops
	}
	d1, d2 := run(), run()
	if d1 != d2 {
		t.Fatalf("loss not deterministic: %d vs %d", d1, d2)
	}
	if d1 < 60 || d1 > 140 {
		t.Fatalf("loss drops %d of 1000 at 10%%", d1)
	}
}

func TestSendWithoutCircuitErrors(t *testing.T) {
	rt := occam.NewRuntime()
	net := New(rt)
	a := net.AddHost("a")
	var err error
	rt.Go("tx", nil, occam.Low, func(p *occam.Proc) {
		err = a.Send(p, Message{VCI: 42, Size: 10})
	})
	if e := rt.RunUntil(occam.Time(time.Millisecond)); e != nil {
		t.Fatal(e)
	}
	rt.Shutdown()
	if err == nil || err.Error() != "atm: no circuit for VCI 42 from host a" {
		t.Fatalf("send on unopened circuit: %v", err)
	}
}

// TestSameVCIFromTwoHostsRoutesApart opens VCI 5 from two hosts, to
// different hosts over different links: a VCI is the destination's
// stream number, so two sources may well use the same one, and each
// host's table must find its own circuit. Closing one leaves the other
// delivering.
func TestSameVCIFromTwoHostsRoutesApart(t *testing.T) {
	rt := occam.NewRuntime()
	net := New(rt)
	a1, a2 := net.AddHost("a1"), net.AddHost("a2")
	b1, b2 := net.AddHost("b1"), net.AddHost("b2")
	l1 := net.AddLink("l1", LinkConfig{Bandwidth: 100_000_000})
	l2 := net.AddLink("l2", LinkConfig{Bandwidth: 100_000_000})
	net.OpenCircuit(5, a1, b1, l1)
	net.OpenCircuit(5, a2, b2, l2)
	// Each destination records the sizes it receives: a1 sends 100-byte
	// messages and a2 200-byte ones.
	got := map[*Host][]int{}
	for _, h := range []*Host{b1, b2} {
		rt.Go(h.nm+".drain", nil, occam.High, func(p *occam.Proc) {
			for {
				got[h] = append(got[h], h.Rx.Recv(p).Size)
			}
		})
	}
	var err error
	rt.Go("tx", nil, occam.Low, func(p *occam.Proc) {
		a1.Send(p, Message{VCI: 5, Size: 100})
		a2.Send(p, Message{VCI: 5, Size: 200})
		p.Sleep(10 * time.Millisecond)
		net.CloseCircuit(5, a1, l1)
		err = a1.Send(p, Message{VCI: 5, Size: 100})
		a2.Send(p, Message{VCI: 5, Size: 200})
	})
	if e := rt.RunUntil(occam.Time(time.Second)); e != nil {
		t.Fatal(e)
	}
	rt.Shutdown()
	if fmt.Sprint(got[b1], got[b2]) != "[100] [200 200]" {
		t.Errorf("b1 received %v and b2 %v; want [100] and [200 200]", got[b1], got[b2])
	}
	if err == nil || err.Error() != "atm: no circuit for VCI 5 from host a1" {
		t.Errorf("send on the closed circuit: %v", err)
	}
}

// TestMessageFitsACacheLine guards Message's layout: every hop (Host.Send,
// the link queue, the transmitter, delivery, the fabric's queues, the
// channel hand-over) copies it inline, and past 64 bytes each copy is a
// block-copy call.
func TestMessageFitsACacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n > 64 {
		t.Errorf("Message is %d bytes, want at most 64", n)
	}
}

func TestCloseCircuitStopsDelivery(t *testing.T) {
	rt := occam.NewRuntime()
	net := New(rt)
	a := net.AddHost("a")
	b := net.AddHost("b")
	l := net.AddLink("ab", LinkConfig{Bandwidth: 100_000_000})
	net.OpenCircuit(1, a, b, l)
	received := 0
	drain(rt, b, nil, &received)
	rt.Go("tx", nil, occam.Low, func(p *occam.Proc) {
		a.Send(p, Message{VCI: 1, Size: 100})
		p.Sleep(10 * time.Millisecond)
		net.CloseCircuit(1, a, l)
		if err := a.Send(p, Message{VCI: 1, Size: 100}); err == nil {
			t.Error("send on closed circuit succeeded")
		}
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if received != 1 {
		t.Fatalf("received %d", received)
	}
}

func TestDirectHostToHostCircuit(t *testing.T) {
	// Zero-link circuit: degenerate but legal (loopback).
	rt := occam.NewRuntime()
	net := New(rt)
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.OpenCircuit(1, a, b)
	received := 0
	drain(rt, b, nil, &received)
	rt.Go("tx", nil, occam.Low, func(p *occam.Proc) {
		a.Send(p, Message{VCI: 1, Size: 10})
	})
	if err := rt.RunUntil(occam.Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if received != 1 {
		t.Fatal("loopback circuit failed")
	}
}

func TestConflictingVCIRoutePanics(t *testing.T) {
	// Opening a second circuit with the same VCI through the same link
	// to a different next hop would silently cross-wire the first
	// stream's cells; it must fail loudly instead.
	rt := occam.NewRuntime()
	net := New(rt)
	a := net.AddHost("a")
	b := net.AddHost("b")
	c := net.AddHost("c")
	l := net.AddLink("shared", LinkConfig{Bandwidth: 10_000_000})
	net.OpenCircuit(7, a, b, l)
	defer rt.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting VCI route accepted")
		}
	}()
	net.OpenCircuit(7, a, c, l)
}

func TestSharedHopSameNextHopAllowed(t *testing.T) {
	// Two circuits from different sources may share a downstream hop
	// with the same VCI as long as the next hop agrees — installing
	// the identical route twice is harmless.
	rt := occam.NewRuntime()
	net := New(rt)
	a1 := net.AddHost("a1")
	a2 := net.AddHost("a2")
	b := net.AddHost("b")
	shared := net.AddLink("shared", LinkConfig{Bandwidth: 10_000_000})
	net.OpenCircuit(7, a1, b, shared)
	net.OpenCircuit(7, a2, b, shared)
	received := 0
	drain(rt, b, nil, &received)
	rt.Go("tx", nil, occam.Low, func(p *occam.Proc) {
		a1.Send(p, Message{VCI: 7, Size: 100})
		a2.Send(p, Message{VCI: 7, Size: 100})
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if received != 2 {
		t.Fatalf("received %d", received)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	rt := occam.NewRuntime()
	net := New(rt)
	net.AddHost("a")
	defer rt.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate host accepted")
		}
	}()
	net.AddHost("a")
}

// TestOccupancyIsTheGaugeQuotient: Link.Occupancy reads what
// atm_link_queue_depth over atm_link_queue_limit reads — the message in
// transmission held outside both — empty, partly full and full.
func TestOccupancyIsTheGaugeQuotient(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	reg := obs.New(rt)
	net := New(rt)
	net.Observe(reg)
	a, b := net.AddHost("a"), net.AddHost("b")
	l := net.AddLink("a-b.0", LinkConfig{Bandwidth: 1, QueueLimit: 4}) // nothing finishes sending
	net.OpenCircuit(1, a, b, l)
	lb := obs.L("link", "a-b.0")
	var got, want []float64
	read := func() {
		snap := reg.Snapshot()
		q, _ := snap.Get("atm_link_queue_depth", lb)
		lim, _ := snap.Get("atm_link_queue_limit", lb)
		got, want = append(got, l.Occupancy()), append(want, q.Value/lim.Value)
	}
	rt.Go("sender", nil, occam.High, func(p *occam.Proc) {
		read()
		for _, n := range []int{3, 2} { // one sending and 2 of 4 queued; then 4 of 4
			for i := 0; i < n; i++ {
				a.Send(p, Message{VCI: 1, Size: 100})
			}
			read()
		}
	})
	if err := rt.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(want) != "[0 0.5 1]" || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Occupancy read %v, the gauges %v; want both [0 0.5 1]", got, want)
	}
}

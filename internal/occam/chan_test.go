package occam

import (
	"fmt"
	"testing"
	"time"
)

func TestRendezvousTransfersValue(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	var got int
	rt.Go("sender", nil, Low, func(p *Proc) { ch.Send(p, 42) })
	rt.Go("recv", nil, Low, func(p *Proc) { got = ch.Recv(p) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("received %d, want 42", got)
	}
}

// TestPendingMeansAnAltWouldReceive checks Pending against what a
// SKIP-guarded alternation does: false on an idle channel and under a
// parked receiver, true exactly while a sender is parked, and false
// again once the alternation has taken the value.
func TestPendingMeansAnAltWouldReceive(t *testing.T) {
	rt := NewRuntime()
	ch, idle := NewChan[int](rt, "c"), NewChan[int](rt, "idle")
	var log []string
	note := func(when string) {
		log = append(log, fmt.Sprintf("%s:%v", when, ch.Pending()))
	}
	rt.Go("recv", nil, Low, func(p *Proc) { idle.Recv(p) })
	rt.Go("sender", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond)
		ch.Send(p, 7)
	})
	rt.Go("poller", nil, Low, func(p *Proc) {
		var v int
		guards := []Guard{Recv(ch, &v), Skip()}
		note("start")
		if idle.Pending() {
			t.Error("a parked receiver reads as pending")
		}
		if p.Alt(guards...) != 1 {
			t.Error("alternation received from an idle channel")
		}
		p.Sleep(2 * time.Millisecond)
		note("sender parked")
		if p.Alt(guards...) != 0 || v != 7 {
			t.Errorf("alternation with a sender parked: v=%d", v)
		}
		note("taken")
	})
	if err := rt.RunUntil(Time(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if got := fmt.Sprint(log); got != "[start:false sender parked:true taken:false]" {
		t.Errorf("Pending read %s", got)
	}
}

func TestSenderBlocksUntilReceiver(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	var sendDone, recvAt Time
	rt.Go("sender", nil, Low, func(p *Proc) {
		ch.Send(p, 1)
		sendDone = p.Now()
	})
	rt.Go("recv", nil, Low, func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		ch.Recv(p)
		recvAt = p.Now()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != recvAt || sendDone != Time(7*time.Millisecond) {
		t.Fatalf("send completed at %v, recv at %v, want both 7ms", sendDone, recvAt)
	}
}

func TestReceiverBlocksUntilSender(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	var recvDone Time
	rt.Go("recv", nil, Low, func(p *Proc) {
		ch.Recv(p)
		recvDone = p.Now()
	})
	rt.Go("sender", nil, Low, func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		ch.Send(p, 1)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if recvDone != Time(3*time.Millisecond) {
		t.Fatalf("recv completed at %v, want 3ms", recvDone)
	}
}

func TestMultipleSendersFIFO(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		rt.Go("sender", nil, Low, func(p *Proc) { ch.Send(p, i) })
	}
	rt.Go("recv", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond) // let every sender queue
		for i := 0; i < 5; i++ {
			got = append(got, ch.Recv(p))
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("receive order %v, want FIFO", got)
		}
	}
}

func TestMultipleReceiversFIFO(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	var got [3]int
	for i := 0; i < 3; i++ {
		i := i
		rt.Go("recv", nil, Low, func(p *Proc) { got[i] = ch.Recv(p) })
	}
	rt.Go("sender", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 3; i++ {
			ch.Send(p, 100+i)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != 100+i {
			t.Fatalf("got %v, want receivers served FIFO", got)
		}
	}
}

func TestTrySendWithWaitingReceiver(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[string](rt, "c")
	var got string
	var ok bool
	rt.Go("recv", nil, Low, func(p *Proc) { got = ch.Recv(p) })
	rt.Go("sender", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond)
		ok = ch.TrySend(p, "hello")
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || got != "hello" {
		t.Fatalf("TrySend ok=%v got=%q", ok, got)
	}
}

func TestTrySendWithNoReceiver(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[string](rt, "c")
	var ok bool
	rt.Go("sender", nil, Low, func(p *Proc) {
		ok = ch.TrySend(p, "dropped")
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("TrySend succeeded with no receiver")
	}
}

func TestTrySendFiresAlt(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	var got, idx int
	var ok bool
	rt.Go("alter", nil, Low, func(p *Proc) {
		idx = p.Alt(Recv(ch, &got))
	})
	rt.Go("sender", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond)
		ok = ch.TrySend(p, 9)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || idx != 0 || got != 9 {
		t.Fatalf("ok=%v idx=%d got=%d", ok, idx, got)
	}
}

func TestPingPongLatency(t *testing.T) {
	// Two processes exchanging values round-trip in zero virtual time.
	rt := NewRuntime()
	ab := NewChan[int](rt, "ab")
	ba := NewChan[int](rt, "ba")
	rounds := 0
	rt.Go("a", nil, Low, func(p *Proc) {
		for i := 0; i < 100; i++ {
			ab.Send(p, i)
			ba.Recv(p)
			rounds++
		}
	})
	rt.Go("b", nil, Low, func(p *Proc) {
		for i := 0; i < 100; i++ {
			v := ab.Recv(p)
			ba.Send(p, v)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds != 100 {
		t.Fatalf("rounds = %d", rounds)
	}
	if rt.Now() != 0 {
		t.Fatalf("pure rendezvous advanced clock to %v", rt.Now())
	}
}

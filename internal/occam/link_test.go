package occam

import (
	"testing"
	"time"
)

func TestLinkTransferTime(t *testing.T) {
	rt := NewRuntime()
	l := NewLink[int](rt, "l", 20_000_000) // 20 Mbit/s, the Pandora server link
	// 1000 bytes = 8000 bits at 20 Mbit/s = 400 µs.
	if got := l.TransferTime(1000); got != 400*time.Microsecond {
		t.Fatalf("TransferTime(1000) = %v, want 400µs", got)
	}
}

func TestLinkDelaysDelivery(t *testing.T) {
	rt := NewRuntime()
	l := NewLink[int](rt, "l", 20_000_000)
	var arrived Time
	rt.Go("tx", nil, Low, func(p *Proc) { l.Send(p, 1, 1000) })
	rt.Go("rx", nil, Low, func(p *Proc) {
		l.Recv(p)
		arrived = p.Now()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if arrived != Time(400*time.Microsecond) {
		t.Fatalf("arrived at %v, want 400µs", arrived)
	}
	if l.BytesSent() != 1000 {
		t.Fatalf("BytesSent = %d", l.BytesSent())
	}
}

func TestLinkSerialisesTransfers(t *testing.T) {
	// A large (video) message must delay a following small (audio)
	// message — the §4.2 head-of-line effect.
	rt := NewRuntime()
	l := NewLink[string](rt, "l", 20_000_000)
	var audioArrive Time
	rt.Go("video", nil, Low, func(p *Proc) { l.Send(p, "video", 50_000) }) // 20ms
	rt.Go("audio", nil, Low, func(p *Proc) {
		p.Sleep(time.Microsecond) // definitely queued behind the video
		l.Send(p, "audio", 100)   // 40µs alone
	})
	rt.Go("rx", nil, Low, func(p *Proc) {
		for i := 0; i < 2; i++ {
			if l.Recv(p) == "audio" {
				audioArrive = p.Now()
			}
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	wantMin := Time(20 * time.Millisecond)
	if audioArrive < wantMin {
		t.Fatalf("audio arrived at %v, want after the 20ms video transfer", audioArrive)
	}
}

func TestLinkAltGuard(t *testing.T) {
	rt := NewRuntime()
	l := NewLink[int](rt, "l", 20_000_000)
	other := NewChan[int](rt, "other")
	var idx, got int
	rt.Go("tx", nil, Low, func(p *Proc) { l.Send(p, 33, 10) })
	rt.Go("rx", nil, Low, func(p *Proc) {
		var v, w int
		idx = p.Alt(Recv(other, &w), Recv(&l.ch, &v))
		got = v
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 1 || got != 33 {
		t.Fatalf("idx=%d got=%d", idx, got)
	}
}

func TestLinkZeroSizeIsImmediate(t *testing.T) {
	rt := NewRuntime()
	l := NewLink[int](rt, "l", 20_000_000)
	rt.Go("tx", nil, Low, func(p *Proc) { l.Send(p, 1, 0) })
	rt.Go("rx", nil, Low, func(p *Proc) {
		l.Recv(p)
		if p.Now() != 0 {
			t.Errorf("zero-size transfer took %v", p.Now())
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkBusy(t *testing.T) {
	rt := NewRuntime()
	l := NewLink[int](rt, "l", 1_000_000) // slow: 1 Mbit/s
	rt.Go("tx", nil, Low, func(p *Proc) { l.Send(p, 1, 1000) })
	rt.Go("probe", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond)
		if l.busyUntil <= l.rt.now {
			t.Error("link not busy mid-transfer")
		}
	})
	rt.Go("rx", nil, Low, func(p *Proc) { l.Recv(p) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

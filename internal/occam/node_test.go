package occam

import (
	"slices"
	"testing"
	"time"
)

func TestConsumeAdvancesTime(t *testing.T) {
	rt := NewRuntime()
	n := NewNode("cpu")
	var done Time
	rt.Go("worker", n, Low, func(p *Proc) {
		p.Consume(3 * time.Millisecond)
		done = p.Now()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if done != Time(3*time.Millisecond) {
		t.Fatalf("done at %v, want 3ms", done)
	}
	if n.busyFor != 3*time.Millisecond {
		t.Fatalf("busy for %v", n.busyFor)
	}
}

func TestConsumeSerialisesOnOneNode(t *testing.T) {
	rt := NewRuntime()
	n := NewNode("cpu")
	var ends []Time
	for i := 0; i < 3; i++ {
		rt.Go("worker", n, Low, func(p *Proc) {
			p.Consume(2 * time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(2 * time.Millisecond), Time(4 * time.Millisecond), Time(6 * time.Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends %v, want %v", ends, want)
		}
	}
}

func TestConsumeParallelAcrossNodes(t *testing.T) {
	rt := NewRuntime()
	a := NewNode("a")
	b := NewNode("b")
	var endA, endB Time
	rt.Go("wa", a, Low, func(p *Proc) {
		p.Consume(5 * time.Millisecond)
		endA = p.Now()
	})
	rt.Go("wb", b, Low, func(p *Proc) {
		p.Consume(5 * time.Millisecond)
		endB = p.Now()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if endA != Time(5*time.Millisecond) || endB != Time(5*time.Millisecond) {
		t.Fatalf("different nodes serialised: a=%v b=%v", endA, endB)
	}
}

func TestHighRequestPreemptsLowGrant(t *testing.T) {
	rt := NewRuntime()
	n := NewNode("cpu")
	var order []string
	var ends []Time
	var highWait time.Duration
	done := func(p *Proc, name string) {
		order = append(order, name)
		ends = append(ends, p.Now())
	}
	// One low grant holds the CPU and one more low request queues; a
	// high request arriving 1 ms in suspends the running grant at once,
	// and its remainder runs before the queued low request.
	rt.Go("low0", n, Low, func(p *Proc) {
		p.Consume(2 * time.Millisecond)
		done(p, "low0")
	})
	rt.Go("low1", n, Low, func(p *Proc) {
		p.Consume(2 * time.Millisecond)
		done(p, "low1")
	})
	rt.Go("high", n, High, func(p *Proc) {
		p.Sleep(time.Millisecond)
		asked := p.Now()
		p.Consume(time.Millisecond)
		highWait = p.Now().Sub(asked) - time.Millisecond
		done(p, "high")
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	ms := func(d time.Duration) Time { return Time(d * time.Millisecond) }
	if want := []string{"high", "low0", "low1"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if want := []Time{ms(2), ms(3), ms(5)}; !slices.Equal(ends, want) {
		t.Fatalf("ends %v, want %v", ends, want)
	}
	if highWait != 0 {
		t.Fatalf("high waited %v for the CPU", highWait)
	}
	if n.busyFor != 5*time.Millisecond {
		t.Fatalf("busy for %v, want 5ms", n.busyFor)
	}
}

func TestConsumeZeroIsFree(t *testing.T) {
	rt := NewRuntime()
	n := NewNode("cpu")
	rt.Go("w", n, Low, func(p *Proc) {
		p.Consume(0)
		p.Consume(-time.Millisecond)
		if p.Now() != 0 {
			t.Errorf("zero consume advanced time to %v", p.Now())
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConsumeWithoutNodeSleeps(t *testing.T) {
	rt := NewRuntime()
	rt.Go("w", nil, Low, func(p *Proc) {
		p.Consume(time.Millisecond)
		if p.Now() != Time(time.Millisecond) {
			t.Errorf("nodeless consume at %v", p.Now())
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUtilisation(t *testing.T) {
	rt := NewRuntime()
	n := NewNode("cpu")
	rt.Go("w", n, Low, func(p *Proc) {
		p.Consume(time.Millisecond)
		p.Sleep(time.Millisecond)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if u := float64(n.busyFor) / float64(rt.now); u < 0.49 || u > 0.51 {
		t.Fatalf("utilisation = %v, want ~0.5", u)
	}
}

package occam

import (
	"testing"
	"time"
)

func TestConsumeAdvancesTime(t *testing.T) {
	rt := NewRuntime()
	n := NewNode(rt, "cpu")
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
	n := NewNode(rt, "cpu")
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
	a := NewNode(rt, "a")
	b := NewNode(rt, "b")
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

func TestConsumeHighPriorityJumpsQueue(t *testing.T) {
	rt := NewRuntime()
	n := NewNode(rt, "cpu")
	var order []string
	// One low request holds the CPU; two more queue; a high request
	// arriving last must be granted next.
	rt.Go("low0", n, Low, func(p *Proc) {
		p.Consume(2 * time.Millisecond)
		order = append(order, "low0")
	})
	rt.Go("low1", n, Low, func(p *Proc) {
		p.Consume(2 * time.Millisecond)
		order = append(order, "low1")
	})
	rt.Go("high", n, High, func(p *Proc) {
		p.Sleep(time.Millisecond) // arrives after low0 granted, low1 queued
		p.Consume(time.Millisecond)
		order = append(order, "high")
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"low0", "high", "low1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestConsumeZeroIsFree(t *testing.T) {
	rt := NewRuntime()
	n := NewNode(rt, "cpu")
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
	n := NewNode(rt, "cpu")
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

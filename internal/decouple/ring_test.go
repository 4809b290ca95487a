package decouple

import (
	"testing"
	"testing/quick"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < 4; i++ {
		if !r.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if !r.Full() {
		t.Fatal("ring not full after capacity pushes")
	}
	if r.Push(99) {
		t.Fatal("push into full ring succeeded")
	}
	for i := 0; i < 4; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: ok=%v v=%d", i, ok, v)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing[int](3)
	for cycle := 0; cycle < 10; cycle++ {
		for i := 0; i < 3; i++ {
			if !r.Push(cycle*3 + i) {
				t.Fatal("push failed")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := r.Pop()
			if !ok || v != cycle*3+i {
				t.Fatalf("cycle %d pop %d: v=%d", cycle, i, v)
			}
		}
	}
}

func TestRingActivityCounters(t *testing.T) {
	r := NewRing[int](2)
	r.Push(1)
	r.Push(2)
	r.Pop()
	if r.Pushed() != 2 || r.Popped() != 1 {
		t.Fatalf("pushed=%d popped=%d", r.Pushed(), r.Popped())
	}
}

func TestRingInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero capacity")
		}
	}()
	NewRing[int](0)
}

func TestQuickRingMatchesSlice(t *testing.T) {
	// Model check: the ring behaves exactly like a bounded slice
	// queue under arbitrary push/pop sequences.
	type op struct {
		Kind byte
	}
	f := func(ops []op) bool {
		const capacity = 4
		r := NewRing[int](capacity)
		var model []int
		next := 0
		for _, o := range ops {
			switch o.Kind % 2 {
			case 0: // push
				ok := r.Push(next)
				wantOK := len(model) < capacity
				if ok != wantOK {
					return false
				}
				if ok {
					model = append(model, next)
				}
				next++
			case 1: // pop
				v, ok := r.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if r.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

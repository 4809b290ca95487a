package decouple

// Ring is the circular buffer at the heart of a decoupling buffer: a
// bounded FIFO.
//
// A ring holds no storage until its first push: a decoupling buffer in
// front of an output a box never uses costs only the Ring itself.
type Ring[T any] struct {
	items    []T // nil until the first push
	head     int // index of the oldest item
	n        int // occupancy
	capacity int // the limit: len(items) once they are made

	// activity counters, reported on request ("pointer positions
	// indicating how active it is").
	pushed uint64
	popped uint64
}

// NewRing returns a ring holding at most capacity items.
func NewRing[T any](capacity int) *Ring[T] {
	r := new(Ring[T])
	r.init(capacity)
	return r
}

// init sets the capacity of a ring held by value.
func (r *Ring[T]) init(capacity int) {
	if capacity <= 0 {
		panic("decouple: ring capacity must be positive")
	}
	r.capacity = capacity
}

// Len returns the current occupancy.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the current capacity limit.
func (r *Ring[T]) Cap() int { return r.capacity }

// Full reports whether the ring is at capacity.
func (r *Ring[T]) Full() bool { return r.n >= r.capacity }

// Pushed and Popped return the lifetime activity counters.
func (r *Ring[T]) Pushed() uint64 { return r.pushed }
func (r *Ring[T]) Popped() uint64 { return r.popped }

// Push appends v and reports success; it fails when full.
func (r *Ring[T]) Push(v T) bool {
	if r.Full() {
		return false
	}
	if r.items == nil {
		r.items = make([]T, r.capacity)
	}
	r.items[(r.head+r.n)%len(r.items)] = v
	r.n++
	r.pushed++
	return true
}

// Pop removes and returns the oldest item.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	v := r.items[r.head]
	r.items[r.head] = zero
	r.head = (r.head + 1) % len(r.items)
	r.n--
	r.popped++
	return v, true
}

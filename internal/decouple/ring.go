package decouple

// Ring is the circular buffer at the heart of a decoupling buffer:
// a bounded FIFO whose capacity can be changed dynamically "without
// any loss of data" — shrinking below the current occupancy keeps the
// queued items and simply refuses new ones until the queue drains.
//
// A ring holds no storage until its first push: a decoupling buffer in
// front of an output a box never uses costs only the Ring itself.
type Ring[T any] struct {
	items    []T // nil until the first push
	head     int // index of the oldest item
	n        int // occupancy
	capacity int // current limit (may be less than len(items))

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

// Full reports whether the ring is at (or, after a shrink, above)
// capacity.
func (r *Ring[T]) Full() bool { return r.n >= r.capacity }

// Empty reports whether the ring holds no items.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

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

// Peek returns the oldest item without removing it.
func (r *Ring[T]) Peek() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	return r.items[r.head], true
}

// Resize changes the capacity limit without losing data: growing
// takes effect at once; shrinking below the occupancy keeps every
// queued item and refuses input until the queue drains below the new
// limit.
func (r *Ring[T]) Resize(capacity int) {
	if capacity <= 0 {
		panic("decouple: ring capacity must be positive")
	}
	if r.items != nil && capacity > len(r.items) {
		r.grow(capacity)
	}
	r.capacity = capacity
}

// grow re-bases the circular storage into a larger slice.
func (r *Ring[T]) grow(newSize int) {
	items := make([]T, newSize)
	for i := 0; i < r.n; i++ {
		items[i] = r.items[(r.head+i)%len(r.items)]
	}
	r.items = items
	r.head = 0
}

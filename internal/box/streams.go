package box

import "slices"

// byStream is a small map keyed by stream number: its entries in a
// slice, in ascending stream order. A box keys a handful of streams, for
// which a binary search beats hashing, and a table of one stream costs
// one small slice where a map costs a header and a group of eight slots.
// The search is a plain loop over the ids, which a segment's lookups
// pay no comparison closure for. The zero value is empty.
type byStream[V any] []streamEntry[V]

type streamEntry[V any] struct {
	id uint32
	v  V
}

// find returns where id is, or where it would go, and whether it is
// there.
func (t byStream[V]) find(id uint32) (int, bool) {
	lo, hi := 0, len(t)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); t[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t) && t[lo].id == id
}

// get returns the value for id, and whether there is one.
func (t byStream[V]) get(id uint32) (V, bool) {
	if i, ok := t.find(id); ok {
		return t[i].v, true
	}
	var zero V
	return zero, false
}

// set makes v the value for id.
func (t *byStream[V]) set(id uint32, v V) { *t.ref(id) = v }

// ref returns where the value for id is kept, adding a zero value if
// there is none. The pointer is good until the next entry is added or
// removed.
func (t *byStream[V]) ref(id uint32) *V {
	i, ok := t.find(id)
	if !ok {
		*t = slices.Insert(*t, i, streamEntry[V]{id: id})
	}
	return &(*t)[i].v
}

// del removes id, if it is there.
func (t *byStream[V]) del(id uint32) {
	if i, ok := t.find(id); ok {
		*t = slices.Delete(*t, i, i+1)
	}
}

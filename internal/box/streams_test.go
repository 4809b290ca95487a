package box

import (
	"slices"
	"testing"
)

// TestByStreamKeepsStreamOrder checks the small stream-keyed table
// against a map: after each set and del the entries are the map's, in
// ascending stream order.
func TestByStreamKeepsStreamOrder(t *testing.T) {
	var tab byStream[int]
	ref := map[uint32]int{}
	for i, id := range []uint32{7, 3, 9, 3, 1, 7, 12, 9, 0} {
		if i%3 == 2 {
			tab.del(id)
			delete(ref, id)
		} else {
			tab.set(id, i)
			ref[id] = i
		}
		var ids []uint32
		for _, e := range tab {
			ids = append(ids, e.id)
			if v, ok := ref[e.id]; !ok || v != e.v {
				t.Fatalf("step %d: entry %d = %d, the map has %d (%v)", i, e.id, e.v, v, ok)
			}
		}
		if len(ids) != len(ref) || !slices.IsSorted(ids) {
			t.Fatalf("step %d: ids %v, want the map's %d in ascending order", i, ids, len(ref))
		}
		for id, v := range ref {
			if got, ok := tab.get(id); !ok || got != v {
				t.Fatalf("step %d: get(%d) = %d, %v; want %d", i, id, got, ok, v)
			}
		}
		if _, ok := tab.get(100); ok {
			t.Fatalf("step %d: get of an absent stream found one", i)
		}
	}
}

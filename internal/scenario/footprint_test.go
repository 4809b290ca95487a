package scenario

import (
	"runtime"
	"testing"
	"time"
)

// idleBoxBytes is what one idle box on a fabric with the degrade ladder
// on adds to the live heap (linux/amd64, go1.24): its twelve processes,
// channels, links, decoupling rings, mixer and clawback set-up, its
// share of the fabric port and controller, and the registry entries of
// all of them. The camera's framestore, the allocator's buffers, the
// muting tables and each histogram's value map are built on first use,
// so an idle box holds none of them.
const idleBoxBytes = 31_700

// TestIdleBoxFootprint builds 200 idle boxes on one fabric with degrade
// on, runs them for 100 ms, and fails if the live heap grew by more than
// 15 % over idleBoxBytes a box.
func TestIdleBoxFootprint(t *testing.T) {
	const boxes = 200
	r, err := NewRunner(MustParse(`scenario footprint
duration 1s
box v[001..200]
fabric f portbw=155M
attach f v[001..200]
degrade shed=150ms hold=800ms
`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	r.Start(nil)
	if err := r.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	perBox := float64(live()-before) / boxes
	runtime.KeepAlive(r)
	t.Logf("%.0f live bytes a box", perBox)
	if limit := 1.15 * idleBoxBytes; perBox > limit {
		t.Errorf("an idle box holds %.0f live bytes, over the %.0f allowed (%d measured, + 15 %%)", perBox, limit, idleBoxBytes)
	}
}

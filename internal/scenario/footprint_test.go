package scenario

import (
	"runtime"
	"testing"
	"time"
)

// idleBoxBytes is what one idle box on a fabric with the degrade ladder
// on adds to the live heap (linux/amd64, go1.24): its twelve processes,
// channels, links, decoupling rings, mixer and clawback set-up, its
// share of the fabric port and controller, and the registry rows of all
// of them. The camera's framestore, the allocator's buffers, the muting
// tables and each histogram's value map are built on first use, so an
// idle box holds none of them.
const idleBoxBytes = 19_300

// streamBytes is what one received audio stream adds to the live heap
// (linux/amd64, go1.24) once it has played for 100 ms: the mixer's
// stream state and its clawback buffer with their two registry rows,
// the clawback ring, the stream's playout histogram, the fabric route
// and the switch tables' entries at both ends.
const streamBytes = 3_800

// liveGrowth builds spec, runs it for 100 ms and returns how much the
// live heap grew.
func liveGrowth(t *testing.T, spec string) float64 {
	t.Helper()
	r, err := NewRunner(MustParse(spec))
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
	grown := float64(live() - before)
	runtime.KeepAlive(r)
	return grown
}

// footprintSpec is 200 boxes on one fabric with degrade on, and with
// events, if any.
func footprintSpec(events string) string {
	return `scenario footprint
duration 1s
box s mic=tone:400:8000
box v[001..200]
fabric f portbw=155M
attach f s v[001..200]
degrade shed=150ms hold=800ms
` + events
}

// TestIdleBoxFootprint builds 200 idle boxes on one fabric with degrade
// on, runs them for 100 ms, and fails if the live heap grew by more than
// 15 % over idleBoxBytes a box.
func TestIdleBoxFootprint(t *testing.T) {
	perBox := liveGrowth(t, footprintSpec("")) / 201
	t.Logf("%.0f live bytes a box", perBox)
	if limit := 1.15 * idleBoxBytes; perBox > limit {
		t.Errorf("an idle box holds %.0f live bytes, over the %.0f allowed (%d measured, + 15 %%)", perBox, limit, idleBoxBytes)
	}
}

// TestStreamFootprint builds the same 200 boxes with one audio stream
// from s to each, and fails if, after 100 ms, the live heap holds more
// than 15 % over streamBytes a stream beyond the idle boxes.
func TestStreamFootprint(t *testing.T) {
	idle := liveGrowth(t, footprintSpec(""))
	perStream := (liveGrowth(t, footprintSpec("at 0s audio s -> v[001..200] as a\n")) - idle) / 200
	t.Logf("%.0f live bytes a received stream", perStream)
	if limit := 1.15 * streamBytes; perStream > limit {
		t.Errorf("a received stream holds %.0f live bytes, over the %.0f allowed (%d measured, + 15 %%)", perStream, limit, streamBytes)
	}
}

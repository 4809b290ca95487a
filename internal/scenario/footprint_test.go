package scenario

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// idleBoxBytes is what one idle box on a fabric with the degrade ladder
// on adds to the live heap (linux/amd64, go1.24): its twelve processes,
// channels, links, decoupling buffers, mixer and clawback set-up, its
// share of the fabric port and controller, and the registry rows of all
// of them. The capture and display boards' stream state, the camera's
// framestore, the decoupling rings' storage, the allocator's buffers,
// each histogram's value map, every map and the trace ring's events are
// built on first use, and the muting tables are one pair a process, so
// an idle box holds none of them.
const idleBoxBytes = 12_400

// streamBytes is what one received audio stream adds to the live heap
// (linux/amd64, go1.24) once it has played for 100 ms: the mixer's
// stream state and its clawback buffer with their two registry rows,
// the clawback ring, the stream's playout histogram, the fabric route,
// the switch tables' entries at both ends, the speaker ring's storage
// and the stream's trace events. Its close gives back the clawback ring
// and the plan, and keeps the figures (closedCallBytes).
const streamBytes = 3_390

// liveGrowth builds spec, runs it for d and returns how much the live
// heap grew.
func liveGrowth(t *testing.T, spec string, d time.Duration) float64 {
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
	if err := r.RunFor(d); err != nil {
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
	perBox := liveGrowth(t, footprintSpec(""), 100*time.Millisecond) / 201
	t.Logf("%.0f live bytes a box", perBox)
	if limit := 1.15 * idleBoxBytes; perBox > limit {
		t.Errorf("an idle box holds %.0f live bytes, over the %.0f allowed (%d measured, + 15 %%)", perBox, limit, idleBoxBytes)
	}
}

// TestStreamFootprint builds the same 200 boxes with one audio stream
// from s to each, and fails if, after 100 ms, the live heap holds more
// than 15 % over streamBytes a stream beyond the idle boxes.
func TestStreamFootprint(t *testing.T) {
	idle := liveGrowth(t, footprintSpec(""), 100*time.Millisecond)
	perStream := (liveGrowth(t, footprintSpec("at 0s audio s -> v[001..200] as a\n"), 100*time.Millisecond) - idle) / 200
	t.Logf("%.0f live bytes a received stream", perStream)
	if limit := 1.15 * streamBytes; perStream > limit {
		t.Errorf("a received stream holds %.0f live bytes, over the %.0f allowed (%d measured, + 15 %%)", perStream, limit, streamBytes)
	}
}

// closedCallBytes is what one further closed call between the same
// two boxes keeps on the live heap (linux/amd64, go1.24) once it has run
// dry: a closed stream keeps its figures, not its state. About 2.9 kB
// are the two streams' figures — core's record (source, VCI map, what
// it keeps of its plan), the mixer stream and clawback buffer behind
// the per-stream registry rows the digest reads, without the clawback
// ring, and the playout histogram — and the rest the spec's two events,
// the Runner's refs and the call's share of the trace ring.
const closedCallBytes = 4_610

// callRounds is ten boxes with microphones on one fabric, paired into
// five calls a round for rounds rounds: round k opens its calls at
// k × 100 ms and closes them 50 ms later.
func callRounds(rounds int) string {
	var sb strings.Builder
	sb.WriteString(`scenario calls
duration 3s
box v[00..09] mic=tone:400:8000
fabric f portbw=155M
attach f v[00..09]
`)
	for k := 0; k < rounds; k++ {
		for p := 0; p < 10; p += 2 {
			fmt.Fprintf(&sb, "at %dms call v%02d v%02d as r%dp%d\n", 100*k, p, p+1, k, p)
		}
		for p := 0; p < 10; p += 2 {
			fmt.Fprintf(&sb, "at %dms close r%dp%d\n", 100*k+50, k, p)
		}
	}
	return sb.String()
}

// TestClosedCallFootprint plays ten rounds of five calls after a first
// round among the same ten boxes, and fails if, at 2 s, the live heap
// holds more than 15 % over closedCallBytes for each of the 50 further
// calls. The timeline's commands take virtual time, so the last close
// ends near 1.45 s.
func TestClosedCallFootprint(t *testing.T) {
	first := liveGrowth(t, callRounds(1), 2*time.Second)
	perCall := (liveGrowth(t, callRounds(11), 2*time.Second) - first) / 50
	t.Logf("%.0f live bytes a closed call", perCall)
	if limit := 1.15 * closedCallBytes; perCall > limit {
		t.Errorf("a closed call holds %.0f live bytes, over the %.0f allowed (%d measured, + 15 %%)", perCall, limit, closedCallBytes)
	}
}

// TestTreeWindowAllocatesNothing pins the rule that what a part builds
// on first use it builds at set-up: 200 viewers on one fabric are
// grafted onto a k=8 tree, warmed 300 ms past the last graft, and then
// 100 ms of steady play may allocate no heap object from the module's
// own code. Every allocation is profiled (MemProfileRate 1), and only
// those whose stack passes through repro/internal/ count, so one by the
// Go runtime or the test binary during the window (its scavenger arming
// a timer, say) does not.
func TestTreeWindowAllocatesNothing(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	r, err := NewRunner(MustParse(`scenario tree-window
duration 1s
box s mic=tone:400:8000
box v[001..200]
fabric f portbw=155M
attach f s v[001..200]
degrade shed=150ms hold=800ms
at 0s tree s -> v001 k=8 as t
at 5ms pull t v[002..200]
`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start(nil)
	if err := r.RunFor(305 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	before := internalAllocs()
	if err := r.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for stack, n := range internalAllocs() {
		if n -= before[stack]; n > 0 {
			t.Errorf("100 ms of a warm 200-viewer tree allocated %d heap objects at\n%s", n, stack)
		}
	}
}

// internalAllocs returns, by call stack, how many heap objects have been
// allocated under a frame of repro/internal/'s non-test code. A profile
// record is published two collections after its allocation, so it
// collects twice first.
func internalAllocs() map[string]int64 {
	runtime.GC()
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 64)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	out := map[string]int64{}
	for _, rec := range recs {
		var stack strings.Builder
		internal := false
		frames := runtime.CallersFrames(rec.Stack())
		for f, more := frames.Next(); ; f, more = frames.Next() {
			internal = internal || strings.HasPrefix(f.Function, "repro/internal/") && !strings.HasSuffix(f.File, "_test.go")
			fmt.Fprintf(&stack, "  %s\n", f.Function)
			if !more {
				break
			}
		}
		if internal {
			out[stack.String()] += rec.AllocObjects
		}
	}
	return out
}

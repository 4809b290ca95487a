package scenario

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
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
// each histogram's multiset, every map and the trace ring's events are
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
	before := internalAllocs(0)
	if err := r.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for stack, n := range internalAllocs(0) {
		if n -= before[stack]; n > 0 {
			t.Errorf("100 ms of a warm 200-viewer tree allocated %d heap objects at\n%s", n, stack)
		}
	}
}

// internalAllocs returns, by call stack, how many heap objects larger
// than above bytes have been allocated under a frame of repro/internal/'s
// non-test code. A profile record is published two collections after its
// allocation, so it collects twice first.
func internalAllocs(above int64) map[string]int64 {
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
		if internal && rec.AllocBytes > above*rec.AllocObjects {
			out[stack.String()] += rec.AllocObjects
		}
	}
	return out
}

// churnSpec is a churn-shaped system: a k=4 tree from src over 24 of
// 48 viewers and 24 call boxes, all on one fabric under the degrade
// ladder and a call balancer, where every 8 ms one thing changes in
// turn: a call opens, a viewer is pulled in, a call closes, a viewer
// is dropped.
func churnSpec() string {
	var sb strings.Builder
	sb.WriteString(`scenario churn-window
duration 2s
box src mic=tone:400:8000
box t[01..48] jitter
box k[01..24] mic=tone:300:8000 jitter
fabric f portbw=155M
attach f src t[01..48] k[01..24]
degrade shed=150ms hold=800ms
balance budget=8 interval=20ms
`)
	rng := rand.New(rand.NewPCG(1, 2))
	in, out := []string{}, []string{}
	for i := 1; i <= 48; i++ {
		if v := fmt.Sprintf("t%02d", i); i <= 24 {
			in = append(in, v)
		} else {
			out = append(out, v)
		}
	}
	fmt.Fprintf(&sb, "at 0s tree src -> %s k=4 as t\n", strings.Join(in, ","))
	take := func(list *[]string) string {
		i := rng.IntN(len(*list))
		v := (*list)[i]
		*list = slices.Delete(*list, i, i+1)
		return v
	}
	var open []string
	for i, at := 0, 10*time.Millisecond; at < 2*time.Second; i, at = i+1, at+8*time.Millisecond {
		switch i % 4 {
		case 0:
			a, b := 1+rng.IntN(24), 1+rng.IntN(23)
			if b >= a {
				b++
			}
			ref := fmt.Sprintf("c%03d", i)
			open = append(open, ref)
			fmt.Fprintf(&sb, "at %v call k%02d k%02d as %s\n", at, a, b, ref)
		case 1:
			v := take(&out)
			in = append(in, v)
			fmt.Fprintf(&sb, "at %v pull t %s\n", at, v)
		case 2:
			fmt.Fprintf(&sb, "at %v close %s\n", at, take(&open))
		case 3:
			v := take(&in)
			out = append(out, v)
			fmt.Fprintf(&sb, "at %v drop t %s\n", at, v)
		}
	}
	return sb.String()
}

// TestChurnWindowAllocationsRepeat runs a window of churnSpec in three
// runners and requires the heap objects each allocates under a frame of
// repro/internal/ to repeat exactly, stack by stack. Every runner's maps
// draw their own hash seeds, so a map whose growth the seed decides —
// one that deletes from full groups — fails it, as a pool the collector
// empties would. Objects of 16 bytes or less are left out: pointer-free
// ones share 16-byte blocks, a profile records only the one that starts
// a block, and which that is depends on when the collector last reset
// the blocks.
func TestChurnWindowAllocationsRepeat(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	spec := churnSpec()
	var first map[string]int64
	for run := 0; run < 3; run++ {
		r, err := NewRunner(MustParse(spec))
		if err != nil {
			t.Fatal(err)
		}
		r.Start(nil)
		if err := r.RunFor(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		before := internalAllocs(16)
		if err := r.RunFor(1200 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		window := map[string]int64{}
		for stack, n := range internalAllocs(16) {
			if n -= before[stack]; n != 0 {
				window[stack] = n
			}
		}
		r.Close()
		if run == 0 {
			first = window
			continue
		}
		for stack, n := range first {
			if window[stack] != n {
				t.Errorf("run %d allocated %d heap objects where the first allocated %d, at\n%s", run+1, window[stack], n, stack)
			}
		}
		for stack, n := range window {
			if _, ok := first[stack]; !ok {
				t.Errorf("run %d allocated %d heap objects where the first allocated none, at\n%s", run+1, n, stack)
			}
		}
	}
}

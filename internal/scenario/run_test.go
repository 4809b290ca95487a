package scenario

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/occam"
)

// mustPass executes the spec and fails the test on error or any
// failed assertion line.
// execute validates, runs to completion and evaluates sc, returning
// its summary.
func execute(sc *Scenario) (*Summary, error) {
	r, err := NewRunner(sc)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		return nil, err
	}
	return r.Evaluate()
}

func mustPass(t *testing.T, text string) *Summary {
	t.Helper()
	sum, err := execute(MustParse(text))
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if !sum.Pass {
		t.Fatalf("scenario failed:\n%s", sum)
	}
	return sum
}

// TestCloseMidRun closes a ref'd call in the middle of the run: the
// stream's wires must drain back to the pool and the remainder of the
// timeline must keep running.
func TestCloseMidRun(t *testing.T) {
	mustPass(t, `scenario close-mid
duration 3s
box a mic=tone:400:8000
box b
link a b bw=100M
at 100ms call a b as c
at 1s close c
assert wires-drain
`)
}

// TestCrossTrafficNoGap pins that a cross directive without a gap=
// clause is legal and the background traffic it generates still lets
// every wire drain.
func TestCrossTrafficNoGap(t *testing.T) {
	mustPass(t, `scenario cross-nogap
duration 1s
box a mic=tone:400:8000
box b
link a b bw=100M
cross a b hop=0 vci=99 seed=1 size=100+5
assert wires-drain
`)
}

// TestTreeScenarioExecutes drives the tree op end to end over a
// fabric: with k=2 the source sends exactly one copy, the first
// interior box at most two, and every viewer hears the stream.
func TestTreeScenarioExecutes(t *testing.T) {
	mustPass(t, `scenario tree-exec
duration 1s
box s mic=tone:400:8000
box v1
box v2
box v3
box v4
fabric fab portbw=155M
attach fab s v1 v2 v3 v4
at 0s tree s -> v1,v2,v3,v4 k=2 as t
assert copies-max s 1
assert copies-max v1 2
assert min-segments t 50
assert max-lost t 0
assert wires-drain
`)
}

// TestTreePullLateJoin grafts a late viewer onto a running tree via
// the pull op: the joiner pulls one copy from an existing member, so
// the source's per-hop copy count stays at one.
func TestTreePullLateJoin(t *testing.T) {
	mustPass(t, `scenario tree-pull
duration 1s
box s mic=tone:400:8000
box v1
box v2
fabric fab portbw=155M
attach fab s v1 v2
at 0s tree s -> v1 k=4 as t
at 200ms pull t v2
assert copies-max s 1
assert min-segments t 30
assert wires-drain
`)
}

// TestTreeRepairScenario crashes an interior box mid-stream and
// repairs the tree around it. With k=2 the placement is
// s -> v1 -> {v2, v3}, v2 -> v4; crashing v2 orphans v4, the repair
// re-homes it, and the boxes that never sat under v2 must deliver
// byte-identically with the fault-free twin.
func TestTreeRepairScenario(t *testing.T) {
	sum, err := execute(MustParse(`scenario tree-repair
duration 2s
box s mic=tone:400:8000
box v1
box v2 crash=server:800ms-1600ms
box v3
box v4
fabric fab portbw=155M
attach fab s v1 v2 v3 v4
at 0s tree s -> v1,v2,v3,v4 k=2 as t
at 1s repair t v2
assert survivors-identical
assert faults-fired
assert copies-max s 1
`))
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if !sum.Pass {
		t.Fatalf("scenario failed:\n%s", sum)
	}
	// v1 and v3 never flow through v2; v2 is crashed and v4 once sat
	// under it, so exactly two deliveries are compared.
	var line string
	for _, l := range sum.Lines {
		if strings.Contains(l, "survivors-identical") {
			line = l
		}
	}
	if !strings.Contains(line, "2/2 surviving deliveries") {
		t.Fatalf("expected 2/2 surviving deliveries, got: %s", line)
	}
}

// TestCleanTwinRunsOnce: a spec carrying survivors-identical whose
// caller also reads the fault-free twin — before and after Evaluate,
// as E23 and E24 do — simulates that twin exactly once: both CleanTwin
// calls return the twin Evaluate leaves. The twin keeps the spec's
// asserts except the ones about faults.
func TestCleanTwinRunsOnce(t *testing.T) {
	r, err := NewRunner(MustParse(`scenario twin-once
duration 1s
box s mic=tone:400:8000
box v1
box v2 crash=server:300ms-600ms
box v3
fabric fab portbw=155M
attach fab s v[1..3]
at 0s tree s -> v[1..3] k=2 as t
assert survivors-identical
assert faults-fired
assert copies-max s 1
`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	before, err := r.CleanTwin()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Pass {
		t.Errorf("scenario failed:\n%s", sum)
	}
	if _, err := r.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	if after, _ := r.CleanTwin(); after != before || r.twin != before {
		t.Errorf("a second twin: CleanTwin returned %p then %p, and Evaluate left %p", before, after, r.twin)
	}
	if got := before.Spec.Format(); strings.Contains(got, "crash=") || strings.Contains(got, "survivors-identical") ||
		strings.Contains(got, "faults-fired") || !strings.Contains(got, "assert copies-max s 1") {
		t.Errorf("twin spec keeps a fault or drops a fault-free assert:\n%s", got)
	}
	// s feeds v1, v1 feeds v2 and v3: the crashed leaf alone is excluded.
	if checked, mismatched, excluded := r.Survivors(before); checked != 2 || mismatched != 0 || excluded != 1 {
		t.Errorf("survivors: %d checked, %d mismatched, %d excluded; want 2, 0, 1", checked, mismatched, excluded)
	}
}

// TestStartCollectsOnce pins the collector schedule of a build: none
// while Start builds, however much it allocates, exactly one when the
// system stands, and the caller's GC percent back in place.
func TestStartCollectsOnce(t *testing.T) {
	r, err := NewRunner(MustParse(`scenario build-gc
duration 100ms
box v[001..999]
fabric f portbw=155M
attach f v[001..999]
`))
	if err != nil {
		t.Fatal(err)
	}
	const percent = 37
	defer debug.SetGCPercent(debug.SetGCPercent(percent))
	// A cycle the parse started may still be marking: Start's
	// SetGCPercent(-1) waits for it, so finish it before counting.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Start(nil)
	runtime.ReadMemStats(&after)
	defer r.Close()
	if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb < 8 {
		t.Fatalf("the build allocated %d MB: too little for the pacer to have started a cycle on its own", mb)
	}
	if n := after.NumGC - before.NumGC; n != 1 {
		t.Errorf("%d collections across Start, want 1", n)
	}
	if got := debug.SetGCPercent(percent); got != percent {
		t.Errorf("GC percent after Start = %d, want %d", got, percent)
	}
}

// TestVideoBandOffTheReceivingDisplay sends the lower half of a
// 128x128 camera to a box with the default 128x64 display. Every band
// lies below the display: the receiver throws each away as corrupt and
// the run goes on, shows no frame, and leaks no wire.
func TestVideoBandOffTheReceivingDisplay(t *testing.T) {
	r, err := NewRunner(MustParse(`scenario off-display
duration 1s
box a camera=128x128
box b
link a b bw=100M
at 0s video a -> b rect=0,64,128,64 rate=1/1 as v
at 900ms close v
assert wires-drain
`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	sum, err := r.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Pass {
		t.Errorf("scenario failed:\n%s", sum)
	}
	if st := r.Sys.Box("b").DisplayStats(); st.Segments < 40 || st.DecodeErrs != st.Segments || st.Frames != 0 {
		t.Errorf("b's display took %d segments with %d decode errors and showed %d frames; want ≥ 40, all of them errors, and none",
			st.Segments, st.DecodeErrs, st.Frames)
	}
}

// TestScenarioGoroutinesIndependentOfBoxes runs a generated fabric
// spec with 20 boxes and with 200 — a tree to every viewer, every box
// and port under an overload controller — for half a virtual second
// each. No box, port or controller keeps a goroutine, so the two grow
// the process's goroutine count by the same number: the timeline's
// control process and whatever else the spec starts once. Not parallel:
// it counts every goroutine in the process, so it first runs the small
// spec once uncounted — the goroutine that ran the previous test may
// still be exiting when this one starts.
func TestScenarioGoroutinesIndependentOfBoxes(t *testing.T) {
	growth := func(n int) int {
		viewers := fmt.Sprintf("v[001..%03d]", n)
		r, err := NewRunner(MustParse(`scenario goroutines
duration 500ms
box s mic=tone:400:8000
box ` + viewers + `
fabric f portbw=155M
attach f s ` + viewers + `
degrade shed=100ms hold=400ms
at 0s tree s -> ` + viewers + ` k=4 as t
`))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		before := runtime.NumGoroutine()
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return runtime.NumGoroutine() - before
	}
	growth(20)
	if small, large := growth(20), growth(200); small != large {
		t.Errorf("a spec grew the goroutine count by %d with 20 boxes and by %d with 200; want the same", small, large)
	}
}

// TestNetsendOverFabric: a netsend between two boxes on one fabric is
// routed across it — every segment the source switches out reaches the
// far port, none is dropped unrouted at the near one.
func TestNetsendOverFabric(t *testing.T) {
	r, err := NewRunner(MustParse(`scenario netsend-fabric
duration 200ms
box a mic=tone:400:12000
box b
fabric f
attach f a b
at 0s netsend a -> b stream=1 vci=77
`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	snap := r.Sys.Obs.Snapshot()
	sent, _ := snap.Get("switch_switched_total", obs.L("box", "a"))
	delivered, _ := snap.Get("fabric_port_forwarded_total", obs.L("port", "f.p01"))
	unrouted, _ := snap.Get("fabric_port_unrouted_total", obs.L("port", "f.p00"))
	if delivered.Value == 0 || delivered.Value != sent.Value || unrouted.Value != 0 {
		t.Fatalf("sent %v, delivered %v, unrouted %v; want every segment delivered", sent.Value, delivered.Value, unrouted.Value)
	}
}

// TestRawVCIsStayOutOfTheAllocator opens circuits on VCIs core's
// allocator would hand out next — a netsend's, then a feed's — before
// core opens a stream, and a netsend's on the VCI core gave the stream,
// after it opened: the stream must get a VCI of its own, so it neither
// collides with the raw circuit nor merges with its traffic.
func TestRawVCIsStayOutOfTheAllocator(t *testing.T) {
	for _, c := range []struct{ name, before, after string }{
		{"netsend", "at 0s netsend a -> b stream=7 vci=1001\n", ""},
		{"feed", "feed b n=2 base=1001\n", ""},
		{"netsend after the stream", "", "at 480ms netsend a -> b stream=7 vci=1001\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if e := recover(); e != nil {
					t.Fatalf("run panicked: %v", e)
				}
			}()
			mustPass(t, "scenario raw-vci\nduration 500ms\nbox a mic=tone:400:8000\nbox b\nlink a b bw=100M\n"+
				c.before+"at 10ms audio a -> b as s\n"+c.after+"assert min-segments s 100\nassert max-lost s 0\n")
		})
	}
}

// TestBalancerLeavesClosedTreesAlone is the balance suite's migration
// with a second tree, t0, through the same boxes, closed before the
// flood heats n00: the one migration the balancer may make moves the
// live tree t off n00, and nothing touches the closed t0's routes.
func TestBalancerLeavesClosedTreesAlone(t *testing.T) {
	r, err := NewRunner(MustParse(`scenario balance-closed
seed 42
duration 1s
box src mic=speech:1:12000
box src2 mic=speech:9:12000
box vsrc camera=128x128
box n00 camera=128x128
box n[01..09]
fabric fab portbw=1M egress=512
attach fab src src2 vsrc n[00..09]
degrade shed=200ms hold=600ms
balance budget=2 interval=20ms migrate=0.4 cooldown=5s maxmig=1
at 0s tree src2 -> n[00..09] k=3 trees=1 as t0
at 0s tree src -> n[00..09] k=3 trees=1 as t
at 600ms close t0
at 700ms video vsrc -> n00 rect=0,0,128,128 rate=1/1 as v
`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if migs := r.Bal.Migrations(); len(migs) != 1 || migs[0].Box != "n00" {
		t.Fatalf("migrations %v: want one, off n00", migs)
	}
	if n := r.Streams["t"].Tree.Relays("n00"); n != 0 {
		t.Errorf("t still relays %d copies through hot n00", n)
	}
	for _, e := range r.Sys.Obs.Tracer().Events() {
		if e.Source == "src2.switch" && e.At > occam.Time(600*time.Millisecond) && e.Detail != "route closed" {
			t.Errorf("the closed tree's source was reconfigured: %v", e)
		}
	}
}

// TestClosedStreamsKeepTheirFigures closes a two-stripe tree, after a
// repair around its crashed relay r1, and a flat stream: what the
// asserts, Survivors, EverUnder and the tree row read of the closed
// streams is what they read of their open plans before close released
// them.
func TestClosedStreamsKeepTheirFigures(t *testing.T) {
	r, err := NewRunner(MustParse(`scenario closed-tree
seed 7
duration 1s
box s mic=tone:400:8000
box u mic=tone:500:8000
box r1 crash=server:200ms-400ms
box v[1..6]
fabric f portbw=155M
attach f s u r1 v[1..6]
at 0s tree s -> r1,v1,v2,v3,v4,v5,v6 k=2 trees=2 as t
at 0s audio u -> v4,v5 as a
at 300ms repair t r1
at 700ms close t
at 700ms close a
assert survivors-identical
assert spread t 3
assert spread a 1
`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Streams["t"].Closed() || !r.Streams["a"].Closed() {
		t.Fatal("a stream is open after its close")
	}
	sum, err := r.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"ok   survivors-identical: 5/5 surviving deliveries byte-identical with the fault-free twin",
		"ok   spread t: 4 distinct feeder boxes for t (want ≥ 3)",
		"ok   spread a: 1 distinct feeder boxes for a (want ≥ 1)",
	}
	if !slices.Equal(sum.Lines, want) {
		t.Errorf("summary lines %q, want %q", sum.Lines, want)
	}
	clean, err := r.CleanTwin()
	if err != nil {
		t.Fatal(err)
	}
	if c, m, x := r.Survivors(clean); c != 5 || m != 0 || x != 4 {
		t.Errorf("Survivors: %d checked, %d mismatched, %d excluded; want 5, 0, 4", c, m, x)
	}
	for ref, want := range map[string]string{
		"t": "r1<s v1<s v2<s v2<r1 v3<s v3<v1 v4<s v4<r1 v5<s v5<v1 v6<s v6<r1 v6<v2",
		"a": "v4<u v5<u",
	} {
		st := r.Streams[ref]
		var under []string
		names := []string{}
		for _, d := range st.Dests {
			names = append(names, d.Name)
		}
		for _, d := range append(names, "s", "u", "x") {
			for _, b := range []string{"s", "u", "r1", "v1", "v2", "v3"} {
				if st.EverUnder(d, b) {
					under = append(under, d+"<"+b)
				}
			}
		}
		if got := strings.Join(under, " "); got != want {
			t.Errorf("EverUnder of %s: %s\nwant            %s", ref, got, want)
		}
	}
	snap := r.Sys.Obs.Snapshot()
	for name, want := range map[string]float64{"tree_depth": 3, "tree_copies_max": 2, "tree_repairs_total": 1} {
		if s, ok := snap.Get(name, obs.L("tree", "s.1")); !ok || s.Value != want {
			t.Errorf("%s{tree=\"s.1\"} = %v (registered %v), want %v", name, s.Value, ok, want)
		}
	}
}

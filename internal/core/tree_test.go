package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/box"
	"repro/internal/fabric"
	"repro/internal/occam"
	"repro/internal/workload"
)

// treeSystem builds src plus n viewers v00..vNN on one fabric.
func treeSystem(t *testing.T, n int) (*System, []string) {
	t.Helper()
	s := NewSystem()
	s.AddBox(box.Config{Name: "src", Mic: workload.NewTone(440, 9000)})
	s.AddFabric("fab", fabric.Config{})
	s.AttachFabric("fab", "src")
	var viewers []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("v%02d", i)
		viewers = append(viewers, name)
		s.AddBox(box.Config{Name: name})
		s.AttachFabric("fab", name)
	}
	return s, viewers
}

// TestTreePlanInvariants pins the placement algebra: every box holds
// at most k children, destinations stripe round-robin over the trees,
// and the source feeds exactly one root per tree.
func TestTreePlanInvariants(t *testing.T) {
	s, viewers := treeSystem(t, 20)
	defer s.Shutdown()
	var st *Stream
	s.Control(func(p *occam.Proc) {
		st = must(s.SendAudioTree(p, TreeConfig{Fanout: 3, Trees: 2}, "src", viewers...))
	})
	if err := s.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	plan := st.Tree
	if got := plan.SourceCopies(); got != 2 {
		t.Fatalf("source sends %d copies, want one per tree (2)", got)
	}
	if got := plan.MaxInteriorCopies(); got > 3 {
		t.Fatalf("a box forwards %d copies, k=3", got)
	}
	if got := len(plan.order); got != 20 {
		t.Fatalf("%d members, want 20", got)
	}
	if plan.Depth() < 3 {
		t.Fatalf("depth %d — 10 viewers per tree at fanout 3 need interior relays", plan.Depth())
	}
	for _, v := range viewers {
		if got := s.Box(v).Mixer().Stats(st.VCI(v)); got.Segments < 80 {
			t.Fatalf("%s got %d segments", v, got.Segments)
		}
	}
	// The box layer's watermark agrees with the planner.
	for _, v := range viewers {
		if c := s.Box(v).MaxNetCopies(); c > 3 {
			t.Fatalf("%s forwarded %d simultaneous copies, k=3", v, c)
		}
	}
}

// TestTreeFlatMatchesSendAudio: a zero-fanout tree is the old tannoy —
// same VCI allocation order, same circuits, byte-identical delivery.
func TestTreeFlatMatchesSendAudio(t *testing.T) {
	run := func(viaTree bool) map[string]uint64 {
		s, viewers := treeSystem(t, 4)
		defer s.Shutdown()
		var st *Stream
		s.Control(func(p *occam.Proc) {
			if viaTree {
				st = must(s.SendAudioTree(p, TreeConfig{}, "src", viewers...))
			} else {
				st = s.SendAudio(p, "src", viewers...)
			}
		})
		if err := s.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]uint64)
		for _, v := range viewers {
			m := s.Box(v).Mixer().Stats(st.VCI(v))
			if m.Segments == 0 {
				t.Fatalf("%s silent", v)
			}
			out[v] = m.Digest
		}
		if st.Tree.Depth() != 1 || st.Tree.SourceCopies() != 4 {
			t.Fatalf("flat plan is not flat: depth %d, source copies %d",
				st.Tree.Depth(), st.Tree.SourceCopies())
		}
		return out
	}
	flat, tannoy := run(true), run(false)
	for v, d := range tannoy {
		if flat[v] != d {
			t.Fatalf("%s differs between flat tree and SendAudio: %016x vs %016x", v, flat[v], d)
		}
	}
}

// TestTreePullGraft: late joiners pull from an existing member, never
// costing the source another copy while capacity remains.
func TestTreePullGraft(t *testing.T) {
	s, viewers := treeSystem(t, 6)
	defer s.Shutdown()
	var st *Stream
	s.Control(func(p *occam.Proc) {
		st = must(s.SendAudioTree(p, TreeConfig{Fanout: 4}, "src", viewers[:3]...))
	})
	if err := s.RunFor(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Control(func(p *occam.Proc) { s.Pull(p, st, viewers[3:]...) })
	if err := s.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := st.Tree.SourceCopies(); got != 1 {
		t.Fatalf("source sends %d copies after pulls, want 1", got)
	}
	for _, v := range viewers[3:] {
		if got := s.Box(v).Mixer().Stats(st.VCI(v)); got.Segments < 30 {
			t.Fatalf("late joiner %s got %d segments", v, got.Segments)
		}
		if st.Tree.Parent(v) == "src" {
			t.Fatalf("late joiner %s fed by the source, should pull from a member", v)
		}
	}
}

// TestTreeRepairRehomes: failing an interior box re-parents its
// subtree onto survivors mid-stream, EverUnder remembers the history,
// and the re-homed viewers keep receiving.
func TestTreeRepairRehomes(t *testing.T) {
	s, viewers := treeSystem(t, 12)
	defer s.Shutdown()
	var st *Stream
	s.Control(func(p *occam.Proc) {
		st = must(s.SendAudioTree(p, TreeConfig{Fanout: 2}, "src", viewers...))
	})
	if err := s.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// v00 is the root; fail it and every other viewer re-homes.
	root := viewers[0]
	if st.Tree.Parent(root) != "src" {
		t.Fatalf("%s is not the root", root)
	}
	var rehomed int
	s.Control(func(p *occam.Proc) { rehomed = must(s.RepairTree(p, st, root)) })
	if err := s.RunFor(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rehomed == 0 {
		t.Fatal("repair re-homed nothing")
	}
	if st.Tree.Repairs() != 1 {
		t.Fatalf("repairs counter %d, want 1", st.Tree.Repairs())
	}
	if got := st.Tree.RehomedFrom(root); len(got) != rehomed {
		t.Fatalf("RehomedFrom lists %d members, repair moved %d", len(got), rehomed)
	}
	for _, v := range viewers[1:] {
		if st.Tree.Parent(v) == root {
			t.Fatalf("%s still fed by the failed root", v)
		}
		segsBefore := s.Box(v).Mixer().Stats(st.VCI(v)).Segments
		if segsBefore == 0 {
			t.Fatalf("%s silent after repair", v)
		}
	}
	// History: direct orphans record the failed box as a former parent.
	for _, v := range st.Tree.RehomedFrom(root) {
		if !st.Tree.EverUnder(v, root) {
			t.Fatalf("EverUnder(%s, %s) lost the repair history", v, root)
		}
	}
	// Audio still flows to a re-homed viewer after the repair.
	moved := st.Tree.RehomedFrom(root)[0]
	before := s.Box(moved).Mixer().Stats(st.VCI(moved)).Segments
	if err := s.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if after := s.Box(moved).Mixer().Stats(st.VCI(moved)).Segments; after <= before {
		t.Fatalf("re-homed %s stalled: %d → %d segments", moved, before, after)
	}
}

// TestTreeChurnRepairRace interleaves pulls, a repair and an interior
// removal from two concurrent control procs while audio flows — the
// tree counterpart of the fabric churn test, written to run under
// `go test -race`: every mid-stream VCI reroute the repair machinery
// issues must stay inside the runtime's scheduling discipline.
func TestTreeChurnRepairRace(t *testing.T) {
	s, viewers := treeSystem(t, 16)
	defer s.Shutdown()
	var st *Stream
	s.Control(func(p *occam.Proc) {
		st = must(s.SendAudioTree(p, TreeConfig{Fanout: 2, Trees: 2}, "src", viewers[:10]...))
	})
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Control(func(p *occam.Proc) {
		for _, v := range viewers[10:] {
			p.Sleep(20 * time.Millisecond)
			s.Pull(p, st, v)
		}
	})
	s.Control(func(p *occam.Proc) {
		p.Sleep(30 * time.Millisecond)
		s.RepairTree(p, st, viewers[0])
		p.Sleep(45 * time.Millisecond)
		s.RemoveDestination(p, st, viewers[1])
	})
	if err := s.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := len(st.Tree.order); got != 15 {
		t.Fatalf("%d members after churn, want 15", got)
	}
	for _, d := range st.Dests {
		if got := s.Box(d.Name).Mixer().Stats(d.VCI); got.Segments == 0 {
			t.Fatalf("%s silent after churn", d.Name)
		}
	}
}

// TestTreeCloseDrains: closing a tree stream returns every wire to its
// pool on every box, and releases its plan, so every verb on it refuses
// with ErrClosed and a second close does nothing.
func TestTreeCloseDrains(t *testing.T) {
	s, viewers := treeSystem(t, 8)
	defer s.Shutdown()
	var st *Stream
	s.Control(func(p *occam.Proc) {
		st = must(s.SendAudioTree(p, TreeConfig{Fanout: 2, Trees: 2}, "src", viewers...))
	})
	if err := s.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Control(func(p *occam.Proc) { s.Close(p, st) })
	if err := s.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, n := range append([]string{"src"}, viewers...) {
		if leaked := s.Box(n).WirePoolLeaked(); leaked != 0 {
			t.Fatalf("%s leaked %d wires after close", n, leaked)
		}
	}
	// Its plan is gone: every verb refuses, and a second close does
	// nothing.
	traced := s.Obs.Tracer().Total()
	s.Control(func(p *occam.Proc) {
		s.Close(p, st)
		_, repairErr := s.RepairTree(p, st, viewers[0])
		_, migrateErr := s.MigrateTree(p, st, viewers[0])
		for i, err := range []error{s.Pull(p, st, "src"), s.RemoveDestination(p, st, viewers[1]), repairErr, migrateErr} {
			if !errors.Is(err, ErrClosed) {
				t.Errorf("verb %d on a closed stream: %v, want ErrClosed", i, err)
			}
		}
	})
	if err := s.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := s.Obs.Tracer().Total() - traced; n != 0 {
		t.Errorf("verbs on a closed stream traced %d events", n)
	}
}

// TestTreeRemoveInteriorDestination: dropping an interior member first
// repairs its subtree, so the remaining viewers keep playing.
func TestTreeRemoveInteriorDestination(t *testing.T) {
	s, viewers := treeSystem(t, 10)
	defer s.Shutdown()
	var st *Stream
	s.Control(func(p *occam.Proc) {
		st = must(s.SendAudioTree(p, TreeConfig{Fanout: 2}, "src", viewers...))
	})
	if err := s.RunFor(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	root := viewers[0]
	s.Control(func(p *occam.Proc) { s.RemoveDestination(p, st, root) })
	if err := s.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st.VCI(root) != 0 {
		t.Fatalf("%s still has a circuit after removal", root)
	}
	if got := len(st.Tree.order); got != 9 {
		t.Fatalf("%d members after removal, want 9", got)
	}
	if got := st.Tree.Repairs(); got != 0 {
		t.Fatalf("a departure was booked as %d repairs; nothing failed", got)
	}
	for _, v := range viewers[1:] {
		before := s.Box(v).Mixer().Stats(st.VCI(v)).Segments
		if before == 0 {
			t.Fatalf("%s silent after interior removal", v)
		}
	}
}

// TestTreeMemberAttachedOnce: pulling a box that is already a member is
// a no-op, so a later drop really removes it — no second node left
// playing with nothing able to reach it.
func TestTreeMemberAttachedOnce(t *testing.T) {
	s, viewers := treeSystem(t, 2)
	defer s.Shutdown()
	a := viewers[0]
	var st *Stream
	var vci uint32
	s.Control(func(p *occam.Proc) {
		st = must(s.SendAudioTree(p, TreeConfig{Fanout: 2}, "src", viewers...))
		vci = st.VCI(a)
		p.Sleep(100 * time.Millisecond)
		s.Pull(p, st, a)
		if got := st.VCI(a); got != vci || len(st.Dests) != 2 || len(st.Tree.order) != 2 {
			t.Errorf("second attach of %s: VCI %d → %d, destinations %v", a, vci, got, st.Dests)
		}
		p.Sleep(100 * time.Millisecond)
		s.RemoveDestination(p, st, a)
	})
	if err := s.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := st.Dests; len(got) != 1 || got[0].Name != viewers[1] {
		t.Fatalf("destinations after drop: %v, want only %s", got, viewers[1])
	}
	if got := st.Tree.order; len(got) != 1 || got[0].name != viewers[1] {
		t.Fatalf("%d members after drop, want only %s", len(got), viewers[1])
	}
	before := s.Box(a).Mixer().Stats(vci).Segments
	if before == 0 {
		t.Fatalf("%s never played", a)
	}
	if err := s.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if after := s.Box(a).Mixer().Stats(vci).Segments; after != before {
		t.Fatalf("%s still playing after its drop: %d → %d segments", a, before, after)
	}
	s.Control(func(p *occam.Proc) { s.Close(p, st) })
	if err := s.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, n := range append([]string{"src"}, viewers...) {
		if leaked := s.Box(n).WirePoolLeaked(); leaked != 0 {
			t.Fatalf("%s leaked %d wires after close", n, leaked)
		}
	}
}

// TestTreeMoveAcrossBridge re-homes subtrees whose edges are not all
// one fabric. src and relay r sit on fabric A, b0..b2 on fabric B; r
// reaches b0 and b1 over bridge links, and so does src. Repairing r
// moves b0 from a link circuit onto fabric B (another far-side box
// adopts it) and b1 from r's link onto src's — the close-old /
// open-new and fall-back-to-source branches of adopt.
func TestTreeMoveAcrossBridge(t *testing.T) {
	const k = 2
	s := NewSystem()
	defer s.Shutdown()
	s.AddBox(box.Config{Name: "src", Mic: workload.NewTone(440, 9000)})
	s.AddFabric("A", fabric.Config{})
	s.AddFabric("B", fabric.Config{})
	s.AttachFabric("A", "src")
	s.AddBox(box.Config{Name: "r"})
	s.AttachFabric("A", "r")
	far := []string{"b0", "b1", "b2"}
	for _, name := range far {
		s.AddBox(box.Config{Name: name})
		s.AttachFabric("B", name)
	}
	bridge := atm.LinkConfig{Bandwidth: 100_000_000}
	for _, name := range far[:2] {
		s.Connect("r", name, bridge)
		s.Connect("src", name, bridge)
	}
	all := append([]string{"src", "r"}, far...)

	var st *Stream
	s.Control(func(p *occam.Proc) {
		st = must(s.SendAudioTree(p, TreeConfig{Fanout: k}, "src", append([]string{"r"}, far...)...))
	})
	if err := s.RunFor(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	plan := st.Tree
	if plan.Parent("b0") != "r" || plan.Parent("b1") != "r" || plan.Parent("b2") != "b0" {
		t.Fatalf("plan before repair: b0←%s b1←%s b2←%s, want r, r, b0",
			plan.Parent("b0"), plan.Parent("b1"), plan.Parent("b2"))
	}
	s.Control(func(p *occam.Proc) {
		if got := must(s.RepairTree(p, st, "r")); got != 2 {
			t.Errorf("repair moved %d subtrees, want 2", got)
		}
	})
	if err := s.RunFor(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if plan.Parent("b0") != "b1" || plan.Parent("b1") != "src" {
		t.Fatalf("plan after repair: b0←%s b1←%s, want b1 (fabric B) and src (its bridge)",
			plan.Parent("b0"), plan.Parent("b1"))
	}
	for _, n := range plan.order {
		if !s.Connectable(n.parent.name, n.name) {
			t.Fatalf("%s is fed by %s, which cannot reach it", n.name, n.parent.name)
		}
	}
	// r's bridge circuits are gone: its host has no circuit for either
	// VCI, so its mux steers neither onto a link, and the links forward
	// neither.
	for _, name := range far[:2] {
		vci := st.VCI(name)
		if s.node("r").host.HasCircuit(vci) {
			t.Fatalf("r still bridges VCI %d to %s", vci, name)
		}
		before := s.Path("r", name)[0].Stats().Forwarded
		if err := s.RunFor(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if after := s.Path("r", name)[0].Stats().Forwarded; after != before {
			t.Fatalf("link r→%s still forwards after the repair: %d → %d", name, before, after)
		}
	}
	for _, name := range all {
		if c := s.Box(name).MaxNetCopies(); c > k {
			t.Fatalf("%s fanned %d copies, k=%d", name, c, k)
		}
	}
	for _, name := range far {
		before := s.Box(name).Mixer().Stats(st.VCI(name)).Segments
		if err := s.RunFor(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if after := s.Box(name).Mixer().Stats(st.VCI(name)).Segments; after < before+20 {
			t.Fatalf("%s stalled after the repair: %d → %d segments", name, before, after)
		}
	}
	s.Control(func(p *occam.Proc) { s.Close(p, st) })
	if err := s.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, name := range all {
		if leaked := s.Box(name).WirePoolLeaked(); leaked != 0 {
			t.Fatalf("%s leaked %d wires after close", name, leaked)
		}
	}
}

// meshTopo joins every pair of names and lets every name relay.
type meshTopo struct{}

func (meshTopo) Connectable(a, b string) bool { return true }
func (meshTopo) CanRelay(string) bool         { return true }

// stubPlacer answers loads from a table and counts the placements it
// books, by the last box booked.
type stubPlacer struct {
	load   map[string]float64
	booked string
	times  int
}

func (s *stubPlacer) Load(box string) float64 { return s.load[box] }
func (s *stubPlacer) Placed(box string)       { s.booked, s.times = box, s.times+1 }

// TestChooseUnderAPlacer: under a placer, choose takes the least loaded
// eligible member, the first in placement order of equals, books the
// pick with Placed once, and allocates nothing.
func TestChooseUnderAPlacer(t *testing.T) {
	plan := NewTreePlan(meshTopo{}, "src", TreeConfig{Fanout: 8})
	for _, name := range []string{"a", "b", "c", "d"} {
		if err := plan.Attach(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	n := &member{name: "new"}
	for _, c := range []struct {
		load map[string]float64
		want string
	}{
		{map[string]float64{}, "a"}, // all equal: placement order
		{map[string]float64{"a": 0.5, "b": 0.2, "c": 0.2, "d": 0.3}, "b"},
		{map[string]float64{"a": 0.5, "b": 0.4, "c": 0.3, "d": 0.1}, "d"}, // a strict minimum wins
	} {
		pl := &stubPlacer{load: c.load}
		if got := plan.choose(n, pl); got == nil || got.name != c.want || pl.booked != c.want || pl.times != 1 {
			t.Errorf("loads %v: choose = %v, booked %q %d times; want %s, booked once", c.load, got, pl.booked, pl.times, c.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { plan.choose(n, pl) }); allocs != 0 {
			t.Errorf("loads %v: choose allocates %v objects, want 0", c.load, allocs)
		}
	}
}

// must is a verb's result in a test that wants no refusal.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

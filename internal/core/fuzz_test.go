package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/box"
	"repro/internal/fabric"
	"repro/internal/occam"
	"repro/internal/workload"
)

// fuzzSystem builds FuzzTreeOps's fixed topology: src and a00..a10 on
// fabric A, b00..b11 on fabric B, listed a00, b00, a01, b01, … so any
// prefix spans both fabrics. src has a bridge link to b00..b05 only,
// and a00..a03 each have one to their B namesake, so relays cross the
// bridge too. b06..b11 hear the stream only from a member on fabric B:
// an attach or a move with no such member to spare is refused.
func fuzzSystem() (*System, []string) {
	s := NewSystem()
	s.AddBox(box.Config{Name: "src", Mic: workload.NewTone(440, 9000)})
	s.AddFabric("A", fabric.Config{})
	s.AddFabric("B", fabric.Config{})
	s.AttachFabric("A", "src")
	bridge := atm.LinkConfig{Bandwidth: 100_000_000}
	var names []string
	for i := 0; i < 12; i++ {
		a, b := fmt.Sprintf("a%02d", i), fmt.Sprintf("b%02d", i)
		s.AddBox(box.Config{Name: b})
		s.AttachFabric("B", b)
		if i < 6 {
			s.Connect("src", b, bridge)
		}
		if i < 11 {
			s.AddBox(box.Config{Name: a})
			s.AttachFabric("A", a)
			names = append(names, a)
			if i < 4 {
				s.Connect(a, b, bridge)
			}
		}
		names = append(names, b)
	}
	return s, names
}

// checkPlan is the plan algebra every tree verb must leave intact.
func checkPlan(s *System, st *Stream, k int) error {
	plan := st.Tree
	// With as many destinations as members, strictly name-sorted, and a
	// non-zero VCI found for each member below, the two are one list.
	if len(plan.order) != len(st.Dests) {
		return fmt.Errorf("%d members but %d destinations", len(plan.order), len(st.Dests))
	}
	for i := 1; i < len(st.Dests); i++ {
		if st.Dests[i-1].Name >= st.Dests[i].Name {
			return fmt.Errorf("destinations out of name order, or listed twice: %v", st.Dests)
		}
	}
	seen := map[string]bool{}
	for _, n := range plan.order {
		m := n.name
		if plan.members[m] != n || seen[m] || st.VCI(m) == 0 {
			return fmt.Errorf("member %s: listed twice, unknown to the plan, or without a VCI", m)
		}
		seen[m] = true
		hops := 0
		for c := n; c != plan.root; c = c.parent {
			if c.parent == nil || !slices.Contains(c.parent.children, c) || hops > len(plan.order) {
				return fmt.Errorf("member %s is not reachable from the source (broken at %s)", m, c.name)
			}
			if !s.Connectable(c.parent.name, c.name) {
				return fmt.Errorf("%s is fed by %s, which cannot reach it", c.name, c.parent.name)
			}
			hops++
		}
		if len(n.children) > k {
			return fmt.Errorf("%s feeds %d children, k=%d", m, len(n.children), k)
		}
		for _, c := range n.children {
			if c.tree != n.tree {
				return fmt.Errorf("%s (tree %d) relays for %s (tree %d): interior in two trees", m, n.tree, c.name, c.tree)
			}
		}
	}
	// What each box's switch fans out is what the plan says it feeds:
	// a relay its children in adoption order, the source its own in
	// placement order.
	var rootFed []uint32
	for _, n := range plan.order {
		if n.parent == plan.root {
			rootFed = append(rootFed, st.VCI(n.name))
		}
		var want []uint32
		for _, c := range n.children {
			want = append(want, st.VCI(c.name))
		}
		if got := s.Box(n.name).NetCopies(st.VCI(n.name)); !slices.Equal(got, want) {
			return fmt.Errorf("%s sends on %v, its children are %v", n.name, got, want)
		}
	}
	if got := s.Box(st.From).NetCopies(st.Local); !slices.Equal(got, rootFed) || len(rootFed) != plan.SourceCopies() {
		return fmt.Errorf("source sends on %v, it feeds %v (%d children)", got, rootFed, plan.SourceCopies())
	}
	return nil
}

// snapshot renders what a refused verb must leave as it was: the plan
// with its history and cursor, every box's fan-out of the stream, and
// the open circuits as far as core can see them — the VCI allocator
// every new circuit draws from, the VCIs each fabric-attached node's
// host keeps a circuit for — which its bridge mux steers onto links —
// and the trace, which every circuit closed or opened over links and
// every move writes to.
func snapshot(s *System, st *Stream) string {
	plan := st.Tree
	var sb strings.Builder
	fmt.Fprintf(&sb, "next %d repairs %d vci %d trace %d src %v\n", plan.next, plan.repairs, s.nextVCI,
		s.Obs.Tracer().Total(), s.Box(st.From).NetCopies(st.Local))
	for _, n := range plan.order {
		fmt.Fprintf(&sb, "%s tree %d vci %d parent %s sends %v former", n.name, n.tree, st.VCI(n.name), n.parent.name, s.Box(n.name).NetCopies(st.VCI(n.name)))
		for _, f := range n.former {
			sb.WriteString(" " + f.name)
		}
		sb.WriteString("\n")
	}
	for _, name := range slices.Sorted(maps.Keys(s.nodes)) {
		n := s.nodes[name]
		if n.fab == nil {
			continue
		}
		var bridges []uint32
		for vci := uint32(1); vci <= s.nextVCI; vci++ {
			if n.host.HasCircuit(vci) {
				bridges = append(bridges, vci)
			}
		}
		if len(bridges) > 0 {
			fmt.Fprintf(&sb, "%s bridges %v\n", name, bridges)
		}
	}
	return sb.String()
}

// FuzzTreeOps drives the plan through generated churn: data[0..2] pick
// K ∈ 1..4, T ∈ 1..2 and how many boxes the tree opens with, then each
// byte pair is one verb on one box — pull (one name), pull (two names), repair,
// migrate, drop — 1 ms apart while audio flows. checkPlan must hold
// after every verb; a verb the plan refuses must leave the snapshot as
// it was; and once the stream is closed every wire is back in its
// pool. Run longer with:
//
//	go test -fuzz=FuzzTreeOps -fuzztime=60s ./internal/core
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 0, 4, 0})                      // tree a00,b00 k=2; pull a00 again; drop a00
	f.Add([]byte{1, 0, 7, 4, 0, 4, 1})                      // k=2, seven members; drop the root relay, then the next interior
	f.Add([]byte{2, 1, 10, 2, 0, 3, 1, 2, 2, 0, 20, 4, 3})  // k=3 t=2: repair, migrate, repair, pull, drop
	f.Add([]byte{0, 1, 0, 1, 5, 1, 5, 3, 5, 2, 6, 4, 5})    // k=1 t=2 from an empty tree: chains, every verb
	f.Add([]byte{3, 0, 23, 2, 0, 2, 1, 2, 2, 2, 3, 4, 0})   // everyone in; repair down the first relays
	f.Add([]byte{0, 0, 1, 0, 21})                           // k=1 a00: nothing reaches b10
	f.Add([]byte{0, 0, 2, 0, 13, 2, 1, 4, 1, 0, 21, 2, 13}) // k=1 a00 b00 b06: b06's and then b10's feeder cannot repair or drop
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		s, names := fuzzSystem()
		defer s.Shutdown()
		k, trees, n0 := 1+int(data[0]%4), 1+int(data[1]%2), int(data[2])%(len(names)+1)
		ops := data[3:]
		if len(ops) > 64 {
			ops = ops[:64]
		}
		var (
			st      *Stream
			bad     error
			done    bool
			refused int
		)
		s.Control(func(p *occam.Proc) {
			defer func() { done = true }()
			st, _ = s.SendAudioTree(p, TreeConfig{Fanout: k, Trees: trees}, "src", names[:n0]...)
			if bad = checkPlan(s, st, k); bad != nil {
				return
			}
			for i := 0; i+1 < len(ops); i += 2 {
				p.Sleep(time.Millisecond)
				name := names[int(ops[i+1])%len(names)]
				before := snapshot(s, st)
				var err error
				switch ops[i] % 5 {
				case 0:
					err = s.Pull(p, st, name)
				case 1:
					err = s.Pull(p, st, name, names[int(ops[i+1]/2)%len(names)])
				case 2:
					_, err = s.RepairTree(p, st, name)
				case 3:
					_, err = s.MigrateTree(p, st, name)
				case 4:
					err = s.RemoveDestination(p, st, name)
				}
				bad = checkPlan(s, st, k)
				if after := snapshot(s, st); bad == nil && err != nil && ops[i]%5 != 1 && after != before {
					bad = fmt.Errorf("refused (%v), yet moved:\n%s→\n%s", err, before, after)
				}
				if err != nil {
					refused++
				}
				if bad != nil {
					bad = fmt.Errorf("after op %d (verb %d on %s): %w", i/2, ops[i]%5, name, bad)
					return
				}
			}
			p.Sleep(50 * time.Millisecond)
			s.Close(p, st)
		})
		for i := 0; !done && i < 20; i++ {
			if err := s.RunFor(50 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("%d verbs refused", refused)
		if bad != nil || !done {
			t.Fatalf("k=%d trees=%d opened with %d: done=%v: %v", k, trees, n0, done, bad)
		}
		if err := s.RunFor(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		for _, name := range append([]string{"src"}, names...) {
			if leaked := s.Box(name).WirePoolLeaked(); leaked != 0 {
				t.Fatalf("%s leaked %d wires after close", name, leaked)
			}
		}
	})
}

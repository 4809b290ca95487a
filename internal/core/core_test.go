package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/box"
	"repro/internal/degrade"
	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/video"
	"repro/internal/workload"
)

func fastLink() atm.LinkConfig {
	return atm.LinkConfig{Bandwidth: 100_000_000, Propagation: 100 * time.Microsecond}
}

// TestCallBothDirections: a call is a two-member conference, audio in
// both directions — the video phone's audio path (§4.1).
func TestCallBothDirections(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	s.AddBox(box.Config{Name: "a", Mic: workload.NewTone(400, 10000)})
	s.AddBox(box.Config{Name: "b", Mic: workload.NewTone(500, 10000)})
	s.Connect("a", "b", fastLink())
	var ab, ba *Stream
	s.Control(func(p *occam.Proc) {
		call := s.Conference(p, "a", "b")
		ab, ba = call[0], call[1]
	})
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.Box("b").Mixer().Stats(ab.VCI("b")); got.Segments < 200 {
		t.Fatalf("a→b delivered %d segments", got.Segments)
	}
	if got := s.Box("a").Mixer().Stats(ba.VCI("a")); got.Segments < 200 {
		t.Fatalf("b→a delivered %d segments", got.Segments)
	}
}

func TestConferenceMixesAll(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	names := []string{"a", "b", "c"}
	for i, n := range names {
		s.AddBox(box.Config{Name: n, Mic: workload.NewTone(300+i*100, 8000)})
	}
	s.Connect("a", "b", fastLink())
	s.Connect("a", "c", fastLink())
	s.Connect("b", "c", fastLink())
	s.Control(func(p *occam.Proc) { s.Conference(p, names...) })
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	// Every box mixes the two other streams.
	for _, n := range names {
		if got := s.Box(n).Mixer().ActiveStreams(); got != 2 {
			t.Fatalf("box %s mixing %d streams, want 2", n, got)
		}
	}
}

func TestTannoySplit(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	s.AddBox(box.Config{Name: "src", Mic: workload.NewTone(440, 9000)})
	for _, n := range []string{"d1", "d2", "d3"} {
		s.AddBox(box.Config{Name: n})
		s.Connect("src", n, fastLink())
	}
	var st *Stream
	s.Control(func(p *occam.Proc) { st = s.SendAudio(p, "src", "d1", "d2", "d3") })
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"d1", "d2", "d3"} {
		if got := s.Box(n).Mixer().Stats(st.VCI(n)); got.Segments < 200 {
			t.Fatalf("%s got %d segments", n, got.Segments)
		}
	}
}

func TestVideoPhone(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	s.AddBox(box.Config{Name: "a", Mic: workload.NewTone(400, 10000)})
	s.AddBox(box.Config{Name: "b"})
	s.Connect("a", "b", fastLink())
	s.Control(func(p *occam.Proc) {
		s.SendAudio(p, "a", "b")
		s.SendVideo(p, "a", box.CameraStream{
			Rect: video.Rect{W: 128, H: 64},
			Rate: video.Rate{Num: 2, Den: 5},
		}, "b")
	})
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f := s.Box("b").DisplayStats().Frames; f < 15 {
		t.Fatalf("video phone displayed %d frames", f)
	}
}

func TestSplitAndRemoveDestinationContinuity(t *testing.T) {
	// Principle 6 at system level: add then remove a destination; the
	// original copy never sees a sequence gap.
	s := NewSystem()
	defer s.Shutdown()
	s.AddBox(box.Config{Name: "src", Mic: workload.NewTone(440, 9000)})
	s.AddBox(box.Config{Name: "keep"})
	s.AddBox(box.Config{Name: "extra"})
	s.Connect("src", "keep", fastLink())
	s.Connect("src", "extra", fastLink())
	var st *Stream
	s.Control(func(p *occam.Proc) {
		st = s.SendAudio(p, "src", "keep")
		p.Sleep(300 * time.Millisecond)
		s.Pull(p, st, "extra")
		p.Sleep(300 * time.Millisecond)
		s.RemoveDestination(p, st, "extra")
	})
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	keep := s.Box("keep").Mixer().Stats(st.VCI("keep"))
	if keep.LostSegments != 0 {
		t.Fatalf("reconfiguration cost the kept copy %d segments", keep.LostSegments)
	}
	if keep.Segments < 200 {
		t.Fatalf("kept copy got %d segments", keep.Segments)
	}
}

func TestCloseStopsFlow(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	s.AddBox(box.Config{Name: "a", Mic: workload.NewTone(440, 9000)})
	s.AddBox(box.Config{Name: "b"})
	s.Connect("a", "b", fastLink())
	var st *Stream
	s.Control(func(p *occam.Proc) {
		st = s.SendAudio(p, "a", "b")
		p.Sleep(300 * time.Millisecond)
		s.Close(p, st)
	})
	if err := s.RunFor(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	after := s.Box("b").Mixer().Stats(st.VCI("b")).Segments
	if err := s.RunFor(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	later := s.Box("b").Mixer().Stats(st.VCI("b")).Segments
	if later > after+2 {
		t.Fatalf("segments still flowing after Close: %d -> %d", after, later)
	}
}

func TestRecordAndPlayback(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	s.AddBox(box.Config{Name: "a", Mic: workload.NewTone(440, 9000)})
	s.AddBox(box.Config{Name: "b"})
	s.AddRepository("repo")
	s.Connect("a", "repo", fastLink())
	s.Connect("repo", "b", fastLink())
	var st *Stream
	s.Control(func(p *occam.Proc) { st = s.SendAudio(p, "a", "repo") })
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	rec := s.Repository("repo").Recording(st.VCI("repo"))
	if rec == nil || rec.Duration() < 900*time.Millisecond {
		t.Fatalf("recording %v", rec)
	}
	merged := rec.Resegment()
	want := merged.Blocks() // the mic keeps recording during playback
	var vci uint32
	s.Control(func(p *occam.Proc) { vci = s.PlayTo(p, "repo", merged, "b") })
	if err := s.RunFor(1500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := s.Box("b").Mixer().Stats(vci)
	if got.Blocks < uint64(want*9/10) {
		t.Fatalf("playback delivered %d of %d blocks", got.Blocks, want)
	}
}

func TestMultiHopPathWorks(t *testing.T) {
	// The SuperJanet shape: several hops, still a working call.
	s := NewSystem()
	defer s.Shutdown()
	s.AddBox(box.Config{Name: "cam", Mic: workload.NewTone(440, 9000)})
	s.AddBox(box.Config{Name: "lon"})
	s.ConnectPath("cam", "lon", []atm.LinkConfig{
		{Bandwidth: 100_000_000, Propagation: time.Millisecond},
		{Bandwidth: 34_000_000, Propagation: 2 * time.Millisecond},
		{Bandwidth: 100_000_000, Propagation: time.Millisecond},
	})
	var st *Stream
	s.Control(func(p *occam.Proc) { st = s.SendAudio(p, "cam", "lon") })
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.Box("lon").Mixer().Stats(st.VCI("lon")); got.Segments < 200 {
		t.Fatalf("multi-hop delivered %d segments", got.Segments)
	}
}

// circuitsOpen counts circuits opened and not yet closed, from the
// atm trace (one EvStreamOpen per OpenCircuit, one EvStreamClose per
// CloseCircuit).
func circuitsOpen(s *System) int {
	n := 0
	for _, e := range s.Obs.Tracer().Events() {
		switch {
		case e.Kind == obs.EvStreamOpen && strings.HasPrefix(e.Detail, "circuit to "):
			n++
		case e.Kind == obs.EvStreamClose && e.Detail == "circuit closed":
			n--
		}
	}
	return n
}

// TestRecordingIsAPlannedStream: a repository stream carries a flat
// plan like any other, so pulling a box onto it and dropping the box
// again goes through the one delivery path and leaves the recording
// without a gap (principle 6); Close returns every circuit and wire.
func TestRecordingIsAPlannedStream(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	s.AddBox(box.Config{Name: "a", Mic: workload.NewTone(440, 9000)})
	s.AddBox(box.Config{Name: "b"})
	s.AddRepository("repo")
	s.Connect("a", "repo", fastLink())
	s.Connect("a", "b", fastLink())
	var st *Stream
	s.Control(func(p *occam.Proc) { st = s.SendAudio(p, "a", "repo") })
	if err := s.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := st.Dests; len(got) != 1 || got[0].Name != "repo" || len(st.Tree.order) != 1 {
		t.Fatalf("destinations %v, want [repo]", got)
	}
	if got := st.Tree.SourceCopies(); got != 1 {
		t.Fatalf("source sends %d copies, want 1", got)
	}
	recorded := func() int { return len(s.Repository("repo").Recording(st.VCI("repo")).Segments) }
	step := func(what string, ctl func(p *occam.Proc)) {
		t.Helper()
		before := recorded()
		s.Control(ctl)
		if err := s.RunFor(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if got := recorded() - before; got < 70 {
			t.Fatalf("%s: repository took %d segments in 300 ms", what, got)
		}
	}
	step("pull b", func(p *occam.Proc) { s.Pull(p, st, "b") })
	heard := s.Box("b").Mixer().Stats(st.VCI("b")).Segments
	if heard < 70 {
		t.Fatalf("b heard %d segments while it was a destination", heard)
	}
	step("drop b", func(p *occam.Proc) { s.RemoveDestination(p, st, "b") })
	if lost := s.Repository("repo").Recording(st.VCI("repo")).LostSegments; lost != 0 {
		t.Fatalf("reconfiguration cost the recording %d segments", lost)
	}
	if got := st.Dests; len(got) != 1 || got[0].Name != "repo" || len(st.Tree.order) != 1 {
		t.Fatalf("destinations %v after the drop, want [repo]", got)
	}

	s.Control(func(p *occam.Proc) { s.Close(p, st) })
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := circuitsOpen(s); n != 0 {
		t.Fatalf("%d circuits left open after Close", n)
	}
	for _, n := range []string{"a", "b"} {
		if leaked := s.Box(n).WirePoolLeaked(); leaked != 0 {
			t.Fatalf("%s leaked %d wires after Close", n, leaked)
		}
	}
}

// sendOrder is a fault hook that injects nothing and logs the VCI of
// every message offered to the links it is attached to.
type sendOrder struct{ vcis []uint32 }

func (o *sendOrder) OnMessage(_ occam.Time, vci uint32, _ int) atm.FaultAction {
	o.vcis = append(o.vcis, vci)
	return atm.FaultAction{}
}
func (o *sendOrder) StallUntil(occam.Time) occam.Time { return 0 }

// TestRemoveDestinationKeepsPlacementOrder: dropping one of three
// destinations re-installs the source route with the remaining VCIs in
// placement order — every segment goes to d1 then d3 — on every run.
func TestRemoveDestinationKeepsPlacementOrder(t *testing.T) {
	for run := 0; run < 20; run++ {
		s := NewSystem()
		s.AddBox(box.Config{Name: "src", Mic: workload.NewTone(440, 9000)})
		dsts := []string{"d1", "d2", "d3"}
		log := &sendOrder{}
		for _, d := range dsts {
			s.AddBox(box.Config{Name: d})
			s.Connect("src", d, fastLink())
			s.Path("src", d)[0].SetFault(log)
		}
		var st *Stream
		s.Control(func(p *occam.Proc) {
			st = s.SendAudio(p, "src", dsts...)
			p.Sleep(100 * time.Millisecond)
			s.RemoveDestination(p, st, "d2")
		})
		if err := s.RunFor(150 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		log.vcis = nil
		if err := s.RunFor(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		s.Shutdown()
		want := []uint32{st.VCI("d1"), st.VCI("d3")}
		if len(log.vcis) < 40 {
			t.Fatalf("run %d: only %d messages after the drop", run, len(log.vcis))
		}
		for i, vci := range log.vcis {
			if vci != want[i%2] {
				t.Fatalf("run %d: message %d went to VCI %d, want the order %v", run, i, vci, want)
			}
		}
	}
}

// TestPressureReadsEachComponent: every field of a node's Pressure is
// its component's own read, 5 ms step by 5 ms step through a run that
// loads all but Ingress (the crossbar outruns every port): a box on a
// fabric whose declared link path congests, a peer whose port is
// congested, faulted and shed at, and whose speaker stalls, a box off
// the fabric, a repository on it, and a name that is no node.
func TestPressureReadsEachComponent(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	s.AddBox(box.Config{Name: "a", Mic: workload.NewTone(400, 10000), CameraW: 128, CameraH: 128})
	stall := []faultinject.Window{{From: time.Second, To: 1500 * time.Millisecond}}
	s.AddBox(box.Config{Name: "b", SinkStalls: map[string][]faultinject.Window{"speaker": stall}})
	s.AddBox(box.Config{Name: "c"})
	s.AddRepository("r")
	s.ConnectPath("a", "c", []atm.LinkConfig{{Bandwidth: 1_200_000, QueueLimit: 24}})
	s.AddFabric("fab", fabric.Config{PortBandwidth: 1_000_000, EgressCellLimit: 128})
	for _, n := range []string{"a", "b", "r"} {
		s.AttachFabric("fab", n)
	}
	s.FabricPort("b").SetFault(faultinject.NewLink(faultinject.LinkConfig{BurstEnter: 0.02, Seed: 1}))
	ctrls := s.EnableDegradation(degrade.Config{})
	band := func(y int) box.CameraStream {
		return box.CameraStream{Rect: video.Rect{Y: y, W: 128, H: 64}, Rate: video.Rate{Num: 1, Den: 1}}
	}
	s.Control(func(p *occam.Proc) {
		s.SendAudio(p, "a", "b")
		s.SendVideo(p, "a", band(0), "b", "c")
		s.SendVideo(p, "a", band(64), "b", "c")
	})

	link := s.Path("a", "c")[0]
	want := func(name string) (w Pressure) {
		if bx := s.Box(name); bx != nil {
			w.Video, w.Audio = bx.BufferPressure()
			w.Copies = bx.MaxNetCopies()
			w.Sheds = ctrls[name].NumShed()
		}
		if name == "a" {
			w.Video = max(w.Video, link.Occupancy())
		}
		if pt := s.FabricPort(name); pt != nil {
			w.Egress, w.Ingress = pt.Occupancy()
			st := pt.Stats()
			w.ShedDrops, w.FaultDrops = st.ShedDrops, st.Fault.Drops
			w.Copies = max(w.Copies, int(pt.MaxIngressCopies()))
			w.Sheds += ctrls[pt.Name()].NumShed()
		}
		return w
	}
	var seen Pressure // each field's largest reading, over every node
	linkFolded := false
	for at := time.Duration(0); at < 3*time.Second; at += 5 * time.Millisecond {
		if err := s.RunFor(5 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "b", "c", "r", "nobody"} {
			got := s.Pressure(name)
			if w := want(name); got != w {
				t.Fatalf("at %v: %s reads %+v, its components %+v", at, name, got, w)
			}
			seen = Pressure{
				Video: max(seen.Video, got.Video), Audio: max(seen.Audio, got.Audio),
				Egress: max(seen.Egress, got.Egress), Ingress: max(seen.Ingress, got.Ingress),
				Sheds: max(seen.Sheds, got.Sheds), ShedDrops: max(seen.ShedDrops, got.ShedDrops),
				FaultDrops: max(seen.FaultDrops, got.FaultDrops), Copies: max(seen.Copies, got.Copies),
			}
		}
		bufVideo, _ := s.Box("a").BufferPressure()
		linkFolded = linkFolded || link.Occupancy() > bufVideo
	}
	if !linkFolded || seen.Audio == 0 || seen.Egress == 0 || seen.Sheds == 0 ||
		seen.ShedDrops == 0 || seen.FaultDrops == 0 || seen.Copies == 0 {
		t.Errorf("a field the run never loaded: largest readings %+v, link above a's buffers %v", seen, linkFolded)
	}
}

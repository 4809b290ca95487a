package box

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/atm"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/video"
	"repro/internal/workload"
)

// twoBoxes builds a, b and a direct 100 Mbit/s ATM path a→b for the
// given VCIs.
func twoBoxes(rt *occam.Runtime, cfgA, cfgB Config, vcis ...uint32) (*Box, *Box, *atm.Network) {
	net := atm.New(rt)
	cfgA.Name, cfgB.Name = "a", "b"
	a := New(rt, net, cfgA)
	b := New(rt, net, cfgB)
	l := net.AddLink("ab", atm.LinkConfig{Bandwidth: 100_000_000, Propagation: 100 * time.Microsecond})
	for _, vci := range vcis {
		net.OpenCircuit(vci, a.Host(), b.Host(), l)
	}
	return a, b, net
}

// reports returns the events process traced to reg's host log, oldest
// first: its reports (§1.2) among them.
func reports(reg *obs.Registry, process string) []obs.Event {
	var out []obs.Event
	for _, e := range reg.Tracer().Events() {
		if e.Source == process {
			out = append(out, e)
		}
	}
	return out
}

func run(t *testing.T, rt *occam.Runtime, d time.Duration) {
	t.Helper()
	if err := rt.RunUntil(occam.Time(d)); err != nil {
		t.Fatal(err)
	}
}

func TestBoxProcessCensus(t *testing.T) {
	// A stage owns a process only if it spends virtual time or must
	// block independently of its caller. These are the twelve that do;
	// a relay process added back (a buffer pump, a log collector, an
	// idle allocator, the audio board's link receiver) fails here by
	// name.
	want := []string{
		"pandora.audioIn", "pandora.audioOut", "pandora.blockHandler",
		"pandora.capture", "pandora.captureIn", "pandora.display", "pandora.displayOut",
		"pandora.micReader", "pandora.netIn", "pandora.netOut", "pandora.serverWriter",
		"pandora.switch",
	}
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	// Every process parks within its first millisecond; the scheduler
	// trace names it when it does.
	seen := make(map[string]bool)
	rt.Trace = func(line string) {
		if _, rest, ok := strings.Cut(line, "] park "); ok {
			name, _, _ := strings.Cut(rest, ":")
			seen[name] = true
		}
	}
	// Every process is a step function: none keeps a stack, so a box
	// starts no goroutine.
	before := runtime.NumGoroutine()
	New(rt, atm.New(rt), Config{})
	if n := rt.NumProcs(); n != len(want) {
		t.Errorf("box.New started %d processes, want %d", n, len(want))
	}
	if n := runtime.NumGoroutine() - before; n != 0 {
		t.Errorf("box.New started %d goroutines, want 0", n)
	}
	run(t, rt, time.Millisecond)
	for _, name := range want {
		if !seen[name] {
			t.Errorf("process %s missing", name)
		}
		delete(seen, name)
	}
	for name := range seen {
		t.Errorf("unexpected process %s", name)
	}
}

func TestOutputHandlerFitsACacheLine(t *testing.T) {
	// audioOut and displayOut run per segment; what differs between them
	// sits behind one pointer, so a handler is one 64-byte line.
	if n := unsafe.Sizeof(outputHandler{}); n != 64 {
		t.Errorf("outputHandler is %d bytes, want 64", n)
	}
}

// countTurns counts, from now on, the turns the scheduler gives each
// process, by name. Turns are not resumes — a step function's turn is a
// call — but they name who ran.
func countTurns(rt *occam.Runtime) map[string]int {
	turns := make(map[string]int)
	rt.Trace = func(line string) {
		if _, name, ok := strings.Cut(line, "] run "); ok {
			turns[name]++
		}
	}
	return turns
}

// turnsByName lists the turns of every process but the named ones.
func turnsByName(turns map[string]int, but ...string) string {
	for _, name := range but {
		delete(turns, name)
	}
	var lines []string
	for name, n := range turns {
		lines = append(lines, fmt.Sprintf("%s %d", name, n))
	}
	sort.Strings(lines)
	return strings.Join(lines, ", ")
}

func TestIdleBoxResumesNothing(t *testing.T) {
	// No route, microphone closed, no camera stream: the closed
	// microphone's poll and the capture board's field tick still take
	// their turns, but every one is a call of a step function.
	// A virtual second costs no coroutine resume, and a second capture
	// loop on the box's command channel, its step counted, is called at
	// each of its 25 field ticks, as the board's own loop is.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	bx := New(rt, atm.New(rt), Config{})
	calls, probe := 0, newCapture(bx)
	rt.GoStep("probe.capture", bx.captureNode, occam.High, occam.StepFunc(func(p *occam.Proc) {
		calls++
		probe.Step(p)
	}))
	run(t, rt, time.Millisecond)
	turns, before, called := countTurns(rt), rt.Resumes(), calls
	run(t, rt, time.Millisecond+time.Second)
	got, field, probed := int(rt.Resumes()-before), turns["pandora.capture"], turns["probe.capture"]
	if got != 0 || field != 25 || probed != 25 || calls-called != 25 {
		t.Errorf("an idle box's second cost %d coroutine resumes, with %d field ticks, and %d step calls of the probe for its %d; want 0, 25, 25, 25. Turns of the rest: %s",
			got, field, calls-called, probed, turnsByName(turns, "pandora.capture", "probe.capture"))
	}
}

func TestIdleAudioBoardTakesNoTurns(t *testing.T) {
	// Nothing plays at a or b for a second: after its first tick, at 2 ms,
	// each block handler parks and takes no turn, while its counters read
	// as if it ticked. Then a's microphone opens: b's handler wakes at the
	// first delivery, sleeps to the next tick instant, and that tick plays
	// the delivered block.
	const ms = time.Millisecond
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	a, b, _ := twoBoxes(rt, Config{Mic: workload.NewTone(400, 12000)}, Config{}, 100)
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100}})
		b.SetRoute(p, Route{Stream: 100, Outputs: []Output{OutSpeaker}})
		p.SleepUntil(occam.Time(time.Second))
		a.StartMic(p, 1)
	})
	run(t, rt, 3*ms)
	turns := countTurns(rt)
	run(t, rt, time.Second)
	idle := turns["a.blockHandler"] + turns["b.blockHandler"]
	if st := b.AudioStats(); idle != 0 || b.Mixer().Ticks(int64(rt.Now())) != 500 || st.TicksRun != 499 {
		t.Errorf("an idle second took %d block handler turns, and b reads %d ticks, %d run; want 0, 500 and 499",
			idle, b.Mixer().Ticks(int64(rt.Now())), st.TicksRun)
	}

	var woken []occam.Time
	rt.Trace = func(line string) {
		if strings.HasSuffix(line, "] run b.blockHandler") {
			woken = append(woken, rt.Now())
		}
	}
	// Step tick by tick, reading how many blocks b has played just
	// before each tick instant and at it: the first played is the
	// instant the count leaves 0, which it must not before.
	bd := occam.Time(segment.BlockDuration)
	played := occam.Time(-1)
	for at := rt.Now() + bd; at <= occam.Time(time.Second+20*ms); at += bd {
		run(t, rt, time.Duration(at-1))
		before := b.Mixer().Playout(100).Count()
		run(t, rt, time.Duration(at))
		if played < 0 && b.Mixer().Playout(100).Count() > 0 {
			played = at
			if before != 0 {
				t.Errorf("b played %d blocks before the tick at %v", before, at)
			}
		}
	}
	if len(woken) < 2 || played < 0 {
		t.Fatalf("b's handler ran at %v and played at %v", woken, played)
	}
	delivered, tick := woken[0], woken[1]
	if want := (delivered + bd - 1) / bd * bd; tick != want || played != tick {
		t.Errorf("woken by the delivery at %v, b's handler ticked at %v and played the block at %v; want both at %v",
			delivered, tick, played, want)
	}
}

func TestAudioCallResumesNoCoroutine(t *testing.T) {
	// One way, a to b, for a virtual second: no process a segment meets
	// between microphone and loudspeaker is switched into — the sender's
	// netOut takes its two turns a segment as calls — and neither is
	// either box's capture board at its field tick.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	a, b, _ := twoBoxes(rt, Config{Mic: workload.NewTone(400, 12000)}, Config{}, 100)
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100}})
		b.SetRoute(p, Route{Stream: 100, Outputs: []Output{OutSpeaker}})
		a.StartMic(p, 1)
	})
	run(t, rt, 100*time.Millisecond)
	turns, before, played := countTurns(rt), rt.Resumes(), b.Mixer().Stats(100).Segments
	run(t, rt, 1100*time.Millisecond)
	played = b.Mixer().Stats(100).Segments - played
	got := int(rt.Resumes() - before)
	field := turns["a.capture"] + turns["b.capture"]
	if netOut := turns["a.netOut"]; played != 250 || netOut != 2*250 || got != 0 || field != 50 {
		t.Errorf("%d segments played for %d coroutine resumes, %d field ticks and %d turns of a.netOut; want 250 segments, no resume, 50 and 500. "+
			"A stage back on a coroutine adds its turns to the resumes; turns of the rest: %s",
			played, got, field, netOut, turnsByName(turns, "a.capture", "b.capture", "a.netOut"))
	}
}

func TestMixingPassIsOneGrant(t *testing.T) {
	// Three streams play at b, a box with every audio feature on and its
	// microphone open, for a virtual second. Each tick's mixing pass is
	// one grant, which a High request would preempt, so b's block
	// handler takes two turns a tick: its wake and its grant's end.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	tone := func() workload.AudioSource { return workload.NewTone(400, 12000) }
	b := New(rt, net, Config{Name: "b", Mic: tone(), Features: Features{JitterCorrection: true, Muting: true, Interface: true}})
	var senders []*Box
	for i, name := range []string{"a", "c", "d"} {
		s := New(rt, net, Config{Name: name, Mic: tone()})
		l := net.AddLink(name+"b", atm.LinkConfig{Bandwidth: 100_000_000, Propagation: 100 * time.Microsecond})
		net.OpenCircuit(uint32(100+i), s.Host(), b.Host(), l)
		ret := net.AddLink("b"+name, atm.LinkConfig{Bandwidth: 100_000_000, Propagation: 100 * time.Microsecond})
		net.OpenCircuit(uint32(200+i), b.Host(), s.Host(), ret)
		senders = append(senders, s)
	}
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		b.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{200, 201, 202}})
		for i, s := range senders {
			s.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{uint32(100 + i)}})
			b.SetRoute(p, Route{Stream: uint32(100 + i), Outputs: []Output{OutSpeaker}})
			s.StartMic(p, 1)
		}
		b.StartMic(p, 1)
	})
	run(t, rt, 100*time.Millisecond)
	turns, ticks := countTurns(rt), b.AudioStats().TicksRun
	run(t, rt, 1100*time.Millisecond)
	ticks = b.AudioStats().TicksRun - ticks
	st := b.AudioStats()
	if got := turns["b.blockHandler"]; ticks != 500 || got != 2*500 || b.mix.ActiveStreams() != 3 || st.LateTicks != 0 {
		t.Errorf("b ran %d ticks mixing %d streams, %d late, in %d block handler turns; want 500 ticks of 3 streams, none late, in 1000 turns",
			ticks, b.mix.ActiveStreams(), st.LateTicks, got)
	}
}

func TestVideoCallResumesNoCoroutine(t *testing.T) {
	// One way, a to b, full-rate 128×64 video for a virtual second: 50
	// segments shown. The capture boards and b's display take 300 turns,
	// every one a call, and the second costs no coroutine resume.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	a, b, _ := twoBoxes(rt, Config{}, Config{}, 300)
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 2, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{300}, Video: true})
		b.SetRoute(p, Route{Stream: 300, Outputs: []Output{OutDisplay}})
		a.StartCamera(p, CameraStream{Stream: 2, Rect: video.Rect{W: 128, H: 64}, Rate: video.Rate{Num: 1, Den: 1}})
	})
	run(t, rt, 100*time.Millisecond)
	turns, before, shown := countTurns(rt), rt.Resumes(), b.DisplayStats().Segments
	run(t, rt, 1100*time.Millisecond)
	shown = b.DisplayStats().Segments - shown
	got := int(rt.Resumes() - before)
	boards := turns["a.capture"] + turns["b.capture"] + turns["b.display"]
	if shown != 50 || got != 0 || boards != 300 {
		t.Errorf("%d segments shown for %d coroutine resumes and %d turns of the capture boards and b's display; want 50 segments, no resume and 300 turns. "+
			"A stage back on a coroutine adds its turns to the resumes; turns of the rest: %s",
			shown, got, boards, turnsByName(turns, "a.capture", "b.capture", "b.display"))
	}
}

func TestAudioCallEndToEnd(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	a, b, _ := twoBoxes(rt,
		Config{Mic: workload.NewTone(400, 12000)},
		Config{}, 100)

	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100}})
		b.SetRoute(p, Route{Stream: 100, Outputs: []Output{OutSpeaker}})
		a.StartMic(p, 1)
	})
	run(t, rt, 2*time.Second)

	st := b.Mixer().Stats(100)
	if st.Segments < 400 {
		t.Fatalf("b received %d segments in 2s, want ≈500", st.Segments)
	}
	if st.LostSegments > 0 {
		t.Fatalf("%d segments lost on a clean path", st.LostSegments)
	}
	// After warm-up the stream plays continuously: silence insertions
	// only while the clawback buffer first fills.
	if silences := st.Clawback.SilenceInserted; silences > 20 {
		t.Fatalf("%d silence insertions on a clean path", silences)
	}
	if a.AudioStats().MicDrops != 0 {
		t.Fatalf("mic dropped %d segments unloaded", a.AudioStats().MicDrops)
	}
}

func TestOneWayLatencyNear8ms(t *testing.T) {
	// §4.2: "the best one-way trip time from microphone input of one
	// box to speaker output of another box over the network was 8ms."
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	a, b, _ := twoBoxes(rt,
		Config{Mic: workload.NewTone(400, 12000)},
		Config{}, 100)
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100}})
		b.SetRoute(p, Route{Stream: 100, Outputs: []Output{OutSpeaker}})
		a.StartMic(p, 1)
	})
	run(t, rt, 3*time.Second)

	lat := b.Mixer().Playout(100)
	if lat.Count() == 0 {
		t.Fatal("no playout latency samples")
	}
	if min := lat.Min(); min < 4*time.Millisecond || min > 12*time.Millisecond {
		t.Fatalf("best one-way latency %v, want ≈8ms", min)
	}
	if mean := lat.Mean(); mean > 16*time.Millisecond {
		t.Fatalf("mean one-way latency %v on a quiet path", mean)
	}
}

func TestLocalLoopback(t *testing.T) {
	// Mic routed to the local speaker through the server only.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	bx := New(rt, net, Config{Name: "solo", Mic: workload.NewTone(300, 9000)})
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		bx.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutSpeaker}})
		bx.StartMic(p, 1)
	})
	run(t, rt, time.Second)
	if st := bx.Mixer().Stats(1); st.Segments < 200 {
		t.Fatalf("loopback delivered %d segments", st.Segments)
	}
}

func TestSplitStreamToTwoBoxes(t *testing.T) {
	// Tannoy (§4.1): one mic stream to two destinations. Principle 6:
	// both copies play, independently.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	a := New(rt, net, Config{Name: "a", Mic: workload.NewTone(500, 10000)})
	b := New(rt, net, Config{Name: "b"})
	c := New(rt, net, Config{Name: "c"})
	lb := net.AddLink("ab", atm.LinkConfig{Bandwidth: 100_000_000})
	lc := net.AddLink("ac", atm.LinkConfig{Bandwidth: 100_000_000})
	net.OpenCircuit(100, a.Host(), b.Host(), lb)
	net.OpenCircuit(200, a.Host(), c.Host(), lc)
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100, 200}})
		b.SetRoute(p, Route{Stream: 100, Outputs: []Output{OutSpeaker}})
		c.SetRoute(p, Route{Stream: 200, Outputs: []Output{OutSpeaker}})
		a.StartMic(p, 1)
	})
	run(t, rt, time.Second)
	if st := b.Mixer().Stats(100); st.Segments < 200 {
		t.Fatalf("b got %d segments", st.Segments)
	}
	if st := c.Mixer().Stats(200); st.Segments < 200 {
		t.Fatalf("c got %d segments", st.Segments)
	}
}

func TestVideoCallEndToEnd(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	a, b, _ := twoBoxes(rt, Config{}, Config{}, 300)
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 2, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{300}})
		b.SetRoute(p, Route{Stream: 300, Outputs: []Output{OutDisplay}})
		a.StartCamera(p, CameraStream{
			Stream: 2,
			Rect:   video.Rect{X: 0, Y: 0, W: 128, H: 64},
			Rate:   video.Rate{Num: 2, Den: 5}, // 10 fps
		})
	})
	run(t, rt, 2*time.Second)
	st := b.DisplayStats()
	// 10 fps for 2 s ≈ 20 frames (minus pipeline fill).
	if st.Frames < 15 || st.Frames > 21 {
		t.Fatalf("displayed %d frames, want ≈20", st.Frames)
	}
	if st.DecodeErrs != 0 {
		t.Fatalf("%d decode errors", st.DecodeErrs)
	}
	if st.FrameLat.Max() > 120*time.Millisecond {
		t.Fatalf("frame latency up to %v", st.FrameLat.Max())
	}
}

func TestLocalVideoDisplay(t *testing.T) {
	// Camera to own display ("local video").
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	bx := New(rt, net, Config{Name: "solo"})
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		bx.SetRoute(p, Route{Stream: 2, Outputs: []Output{OutDisplay}})
		bx.StartCamera(p, CameraStream{
			Stream: 2,
			Rect:   video.Rect{W: 128, H: 64},
			Rate:   video.Rate{Num: 1, Den: 1}, // full 25 fps
		})
	})
	run(t, rt, time.Second)
	if f := bx.DisplayStats().Frames; f < 20 {
		t.Fatalf("local display got %d frames in 1s at 25fps", f)
	}
}

func TestReconfigurationContinuity(t *testing.T) {
	// Principle 6: adding a second destination mid-stream must not
	// interrupt the first copy.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	a := New(rt, net, Config{Name: "a", Mic: workload.NewTone(500, 10000)})
	b := New(rt, net, Config{Name: "b"})
	c := New(rt, net, Config{Name: "c"})
	lb := net.AddLink("ab", atm.LinkConfig{Bandwidth: 100_000_000})
	lc := net.AddLink("ac", atm.LinkConfig{Bandwidth: 100_000_000})
	net.OpenCircuit(100, a.Host(), b.Host(), lb)
	net.OpenCircuit(200, a.Host(), c.Host(), lc)
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100}})
		b.SetRoute(p, Route{Stream: 100, Outputs: []Output{OutSpeaker}})
		c.SetRoute(p, Route{Stream: 200, Outputs: []Output{OutSpeaker}})
		a.StartMic(p, 1)
		p.Sleep(500 * time.Millisecond)
		// Add destination c without disturbing b: replace the route.
		a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100, 200}, Opened: occam.Time(1)})
		p.Sleep(500 * time.Millisecond)
		// Remove c again.
		a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100}, Opened: occam.Time(1)})
	})
	run(t, rt, 1500*time.Millisecond)
	st := b.Mixer().Stats(100)
	if st.LostSegments != 0 {
		t.Fatalf("reconfiguration lost %d segments at b", st.LostSegments)
	}
	if c.Mixer().Stats(200).Segments == 0 {
		t.Fatal("second destination never received data")
	}
}

func TestCloseRouteForgetsFanOut(t *testing.T) {
	// A closed stream sends nowhere, and a stream opened again under its
	// number sends where the new route says.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	bx := New(rt, atm.New(rt), Config{})
	var set, closed, reset []uint32
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		bx.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100, 200}})
		set = bx.NetCopies(1)
		bx.CloseRoute(p, 1)
		closed = bx.NetCopies(1)
		bx.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{300}})
		reset = bx.NetCopies(1)
	})
	run(t, rt, time.Millisecond)
	if fmt.Sprint(set, closed, reset) != "[100 200] [] [300]" {
		t.Errorf("NetCopies after set, close, set again: %v %v %v, want [100 200] [] [300]", set, closed, reset)
	}
}

func TestMutingActsOnEcho(t *testing.T) {
	// A loud incoming stream at the speaker must mute the outgoing
	// mic within the reaction margin.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	a, b, _ := twoBoxes(rt,
		Config{Mic: workload.NewTone(400, 20000)},
		Config{
			Mic:      workload.NewTone(400, 20000),
			Features: Features{Muting: true, JitterCorrection: true},
		}, 100)
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100}})
		b.SetRoute(p, Route{Stream: 100, Outputs: []Output{OutSpeaker}})
		a.StartMic(p, 1)
		b.SetRoute(p, Route{Stream: 2, Outputs: []Output{OutSpeaker}}) // b's own mic looped locally
		b.StartMic(p, 2)
	})
	run(t, rt, time.Second)
	if b.muter.MutedBlocks() == 0 {
		t.Fatal("loud speaker output never muted a mic block")
	}
}

func TestCommandsServedUnderDataLoad(t *testing.T) {
	// Principle 4: a switch report request completes promptly while
	// audio and video streams flood the server.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	reg := obs.New(rt)
	a, b, _ := twoBoxes(rt, Config{Mic: workload.NewTone(400, 10000), Obs: reg}, Config{}, 100, 300)
	var served occam.Time
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100}})
		a.SetRoute(p, Route{Stream: 2, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{300}})
		b.SetRoute(p, Route{Stream: 100, Outputs: []Output{OutSpeaker}})
		b.SetRoute(p, Route{Stream: 300, Outputs: []Output{OutDisplay}})
		a.StartMic(p, 1)
		a.StartCamera(p, CameraStream{Stream: 2, Rect: video.Rect{W: 128, H: 64}, Rate: video.Rate{Num: 1, Den: 1}})
		p.Sleep(500 * time.Millisecond)
		before := p.Now()
		a.RequestSwitchReport(p)
		served = p.Now() - before
	})
	run(t, rt, time.Second)
	if served > occam.Time(5*time.Millisecond) {
		t.Fatalf("switch command took %v under load", served)
	}
	if !slices.ContainsFunc(reports(reg, "a.switch"), func(e obs.Event) bool { return e.Kind == obs.EvStatus }) {
		t.Fatal("switch report never reached the host log")
	}
}

func TestMixerPoolSharedAcrossIncomingStreams(t *testing.T) {
	// Several incoming streams mix simultaneously at one box.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	dst := New(rt, net, Config{Name: "dst"})
	var srcs []*Box
	for i := 0; i < 3; i++ {
		src := New(rt, net, Config{
			Name: string(rune('p' + i)),
			Mic:  workload.NewTone(300+100*i, 8000),
		})
		l := net.AddLink(string(rune('p'+i))+"-dst", atm.LinkConfig{Bandwidth: 100_000_000})
		net.OpenCircuit(uint32(100+i), src.Host(), dst.Host(), l)
		srcs = append(srcs, src)
	}
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		for i, src := range srcs {
			vci := uint32(100 + i)
			src.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{vci}})
			dst.SetRoute(p, Route{Stream: vci, Outputs: []Output{OutSpeaker}})
			src.StartMic(p, 1)
		}
	})
	run(t, rt, time.Second)
	for i := 0; i < 3; i++ {
		if st := dst.Mixer().Stats(uint32(100 + i)); st.Segments < 200 {
			t.Fatalf("stream %d delivered %d segments", 100+i, st.Segments)
		}
	}
	if dst.AudioStats().LateTicks > 0 {
		t.Fatalf("3 plain streams overloaded the audio board (%d late ticks)", dst.AudioStats().LateTicks)
	}
}

func TestCameraStartedAfterIdleFramesSeesTheSamePicture(t *testing.T) {
	// An idle capture board skips the camera's frames without rendering
	// them. A stream opened after N such frames must carry exactly the
	// segments it carries from a board that rendered every one of them —
	// here a board kept busy by a stream too slow to take any frame.
	const idleFrames = 7
	firstSegments := func(keepRendering bool) [][]byte {
		rt := occam.NewRuntime()
		defer rt.Shutdown()
		net := atm.New(rt)
		bx := New(rt, net, Config{Name: "cam"})
		sink := net.AddHost("sink")
		l := net.AddLink("l", atm.LinkConfig{Bandwidth: 100_000_000})
		net.OpenCircuit(300, bx.Host(), sink, l)
		var got [][]byte
		rt.Go("sink", nil, occam.High, func(p *occam.Proc) {
			for {
				m := sink.Rx.Recv(p)
				got = append(got, append([]byte(nil), m.W.Bytes()...))
				m.W.Release()
			}
		})
		rt.Go("control", nil, occam.High, func(p *occam.Proc) {
			bx.SetRoute(p, Route{Stream: 2, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{300}})
			if keepRendering {
				bx.StartCamera(p, CameraStream{Stream: 9, Rect: video.Rect{W: 16, H: 16}, Rate: video.Rate{Num: 1, Den: 1 << 20}})
			}
			p.SleepUntil(occam.Time(idleFrames*video.FramePeriod - time.Millisecond))
			bx.StartCamera(p, CameraStream{Stream: 2, Rect: video.Rect{X: 8, W: 96, H: 64}, Rate: video.Rate{Num: 1, Den: 1}})
		})
		run(t, rt, (idleFrames+3)*video.FramePeriod)
		return got
	}
	skipped, rendered := firstSegments(false), firstSegments(true)
	if len(skipped) < 4 || len(skipped) != len(rendered) {
		t.Fatalf("%d segments after idle frames, %d from the rendering board, want equal and ≥ 4", len(skipped), len(rendered))
	}
	for i := range skipped {
		if !bytes.Equal(skipped[i], rendered[i]) {
			t.Fatalf("segment %d differs between the idle and the rendering board", i)
		}
	}
}

func TestCaptureCodesABandInTheTurnThatReadsIt(t *testing.T) {
	// The capture board reads a band as a view of the framestore, not a
	// copy, which is safe because it compresses the band in the turn
	// that reads it: when it parks for the band's CPU the band is coded.
	// Here the framestore is scribbled over from that park to the
	// board's next one, and the segments it sends must be those of an
	// untouched store. A compression moved to a later turn would code
	// the scribble.
	segments := func(scribble bool) [][]byte {
		rt := occam.NewRuntime()
		defer rt.Shutdown()
		net := atm.New(rt)
		bx := New(rt, net, Config{Name: "cam"})
		sink := net.AddHost("sink")
		l := net.AddLink("l", atm.LinkConfig{Bandwidth: 100_000_000})
		net.OpenCircuit(300, bx.Host(), sink, l)
		var got [][]byte
		rt.Go("sink", nil, occam.High, func(p *occam.Proc) {
			for {
				m := sink.Rx.Recv(p)
				got = append(got, bytes.Clone(m.W.Bytes()))
				m.W.Release()
			}
		})
		rt.Go("control", nil, occam.High, func(p *occam.Proc) {
			bx.SetRoute(p, Route{Stream: 2, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{300}, Video: true})
			bx.StartCamera(p, CameraStream{Stream: 2, Rect: video.Rect{X: 8, Y: 4, W: 96, H: 48}, Rate: video.Rate{Num: 1, Den: 1}, SegsPerFrame: 3})
		})
		var saved []byte
		if scribble {
			rt.Trace = func(line string) {
				if bx.framestore == nil || !strings.Contains(line, "] park cam.capture: ") {
					return
				}
				pix := bx.framestore.CameraPort().Pix
				if saved != nil {
					copy(pix, saved)
					saved = nil
				}
				if strings.Contains(line, ": cpu ") {
					saved = bytes.Clone(pix)
					for i := range pix {
						pix[i] = byte(i * 7)
					}
				}
			}
		}
		run(t, rt, 10*video.FramePeriod)
		return got
	}
	want, got := segments(false), segments(true)
	if len(want) < 20 || len(got) != len(want) {
		t.Fatalf("%d segments with the store scribbled on after each read turn, %d without; want equal and ≥ 20", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("segment %d differs when the store is scribbled on after the turn that read it", i)
		}
	}
}

func TestFramestoreBuiltAtTheFirstStreamedFrame(t *testing.T) {
	// A capture board with no stream open holds no framestore: nothing
	// draws into it or reads it. The first frame a stream is open builds
	// it, and the stream then carries what it carried when every box
	// built its framestore in New: the digest of each segment's arrival
	// and bytes was recorded at that commit.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	bx := New(rt, net, Config{Name: "cam"})
	sink := net.AddHost("sink")
	l := net.AddLink("l", atm.LinkConfig{Bandwidth: 100_000_000})
	net.OpenCircuit(300, bx.Host(), sink, l)
	h := fnv.New64a()
	segs := 0
	rt.Go("sink", nil, occam.High, func(p *occam.Proc) {
		for {
			m := sink.Rx.Recv(p)
			fmt.Fprintf(h, "%v ", p.Now())
			h.Write(m.W.Bytes())
			segs++
			m.W.Release()
		}
	})
	idle := false
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		bx.SetRoute(p, Route{Stream: 2, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{300}, Video: true})
		p.SleepUntil(occam.Time(time.Second))
		idle = bx.framestore == nil
		bx.StartCamera(p, CameraStream{Stream: 2, Rect: video.Rect{X: 8, Y: 4, W: 96, H: 48}, Rate: video.Rate{Num: 1, Den: 2}, SegsPerFrame: 3})
	})
	run(t, rt, 1500*time.Millisecond)
	if !idle {
		t.Error("after 1 s with no camera stream the box holds a framestore")
	}
	if bx.framestore == nil {
		t.Error("the box streamed video without building a framestore")
	}
	if got, want := h.Sum64(), uint64(0x5a1c2e7b9ded007f); segs != 21 || got != want {
		t.Errorf("%d segments with digest %#x, want 21 with %#x", segs, got, want)
	}
}

package box

import (
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/video"
	"repro/internal/workload"
)

// The sink-stall fault (Config.SinkStalls): an output device wedges for
// a window, its decoupling buffer absorbs and then sheds the backlog,
// and nothing else in the box notices (principle 5).

const (
	stallFrom = 1000 * time.Millisecond
	stallTo   = 1500 * time.Millisecond
)

// startAV installs a's outgoing routes and starts its mic (stream 1 →
// VCI 100) and full-rate camera (stream 2 → VCI 300).
func startAV(p *occam.Proc, a *Box) {
	a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100}})
	a.SetRoute(p, Route{Stream: 2, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{300}, Video: true})
	a.StartMic(p, 1)
	a.StartCamera(p, CameraStream{Stream: 2, Rect: video.Rect{W: 128, H: 64}, Rate: video.Rate{Num: 1, Den: 1}})
}

// stopAV tears the streams down again.
func stopAV(p *occam.Proc, a *Box) {
	a.StopMic(p)
	a.StopCamera(p, 2)
	a.CloseRoute(p, 1)
	a.CloseRoute(p, 2)
}

// videoStallResult is what the test compares between the faulted and
// the fault-free run.
type videoStallResult struct {
	reg                      *obs.Registry
	audioInWindow            int           // audio segments b played out during the window
	windowLatency            time.Duration // their mean mic-to-speaker latency
	meanLatency              time.Duration // whole run
	audioLost                uint64
	videoAtWindowEnd, videoN uint64 // display segments at b
	leakedA, leakedB         int
}

// videoStallRun sends audio and video from a to b for 2.5 s under the
// given sink stalls on a, then tears the streams down.
func videoStallRun(t *testing.T, stalls map[string][]faultinject.Window) videoStallResult {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	res := videoStallResult{reg: obs.New(rt)}
	a, b, _ := twoBoxes(rt,
		Config{Mic: workload.NewTone(400, 12000), Obs: res.reg, SinkStalls: stalls},
		Config{}, 100, 300)
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		b.SetRoute(p, Route{Stream: 100, Outputs: []Output{OutSpeaker}})
		b.SetRoute(p, Route{Stream: 300, Outputs: []Output{OutDisplay}})
		startAV(p, a)
		lat := b.PlayoutLatency(100)
		p.SleepUntil(occam.Time(stallFrom))
		n0, sum0 := lat.Count(), lat.Mean()*time.Duration(lat.Count())
		p.SleepUntil(occam.Time(stallTo))
		res.audioInWindow = lat.Count() - n0
		res.windowLatency = (lat.Mean()*time.Duration(lat.Count()) - sum0) / time.Duration(res.audioInWindow)
		res.videoAtWindowEnd = b.DisplayStats().Segments
		p.SleepUntil(occam.Time(2500 * time.Millisecond))
		stopAV(p, a)
	})
	run(t, rt, 3*time.Second)
	res.meanLatency = b.PlayoutLatency(100).Mean()
	res.audioLost = b.Mixer().Stats(100).LostSegments
	res.videoN = b.DisplayStats().Segments
	res.leakedA, res.leakedB = a.WirePoolLeaked(), b.WirePoolLeaked()
	return res
}

func counter(t *testing.T, reg *obs.Registry, name string, labels ...obs.Label) uint64 {
	t.Helper()
	sm, ok := reg.Snapshot().Get(name, labels...)
	if !ok {
		t.Fatalf("%s%v not registered", name, labels)
	}
	return uint64(sm.Value)
}

func TestSinkStallOnVideoLeavesAudioAlone(t *testing.T) {
	clean := videoStallRun(t, nil)
	got := videoStallRun(t, map[string][]faultinject.Window{
		"net-video": {{From: stallFrom, To: stallTo}},
	})

	// The stalled output backs up, and only it drops.
	boxA := obs.L("box", "a")
	vbuf := obs.L("buffer", "a.netVbuf")
	drops := counter(t, got.reg, "switch_full_drops_total", boxA, obs.L("output", "net-video"))
	if drops == 0 {
		t.Fatal("net-video never filled during a 500 ms stall of full-rate video")
	}
	if refused := counter(t, got.reg, "decouple_refused_total", vbuf); refused != drops {
		t.Fatalf("net-video buffer refused %d but the switch counted %d full-drops", refused, drops)
	}
	for _, out := range []string{"speaker", "net-audio", "display"} {
		if n := counter(t, got.reg, "switch_full_drops_total", boxA, obs.L("output", out)); n != 0 {
			t.Fatalf("output %s dropped %d segments because net-video stalled", out, n)
		}
	}
	if n := counter(t, got.reg, "decouple_stalled_total", vbuf); n != 1 {
		t.Fatalf("decouple_stalled_total = %d, want 1 per outage (not per item)", n)
	}
	if _, ok := clean.reg.Snapshot().Get("decouple_stalled_total", vbuf); ok {
		t.Fatal("decouple_stalled_total registered on a box without sink stalls")
	}

	// Audio keeps flowing, no later than without the fault
	// (principles 2 and 5).
	if got.audioLost != 0 {
		t.Fatalf("audio lost %d segments while video was stalled", got.audioLost)
	}
	if got.audioInWindow != clean.audioInWindow {
		t.Fatalf("%d audio segments played during the window, %d without the fault", got.audioInWindow, clean.audioInWindow)
	}
	if got.windowLatency > clean.windowLatency {
		t.Fatalf("audio latency %v during the window, %v without the fault", got.windowLatency, clean.windowLatency)
	}
	if got.meanLatency > clean.meanLatency+10*time.Microsecond {
		t.Fatalf("audio latency %v over the run, %v without the fault", got.meanLatency, clean.meanLatency)
	}

	// Video stops for the window and resumes after it.
	if got.videoAtWindowEnd >= clean.videoAtWindowEnd {
		t.Fatalf("%d video segments displayed by the end of the window, %d without the fault: nothing was held back",
			got.videoAtWindowEnd, clean.videoAtWindowEnd)
	}
	if resumed := got.videoN - got.videoAtWindowEnd; resumed <= netVideoBufferSegments+1 {
		t.Fatalf("%d video segments displayed after the window: no more than the backlog, video never resumed", resumed)
	}
	// Every video segment is displayed or counted: refused by the full
	// buffer, or shed by the switch's reaction to that (principle 3).
	aged := counter(t, got.reg, "switch_age_drops_total", boxA, obs.L("output", "net-video"))
	if got.videoN+drops+aged != clean.videoN {
		t.Fatalf("video: %d displayed + %d full-drops + %d age-drops != %d displayed without the fault",
			got.videoN, drops, aged, clean.videoN)
	}

	for name, n := range map[string]int{"a": got.leakedA, "b": got.leakedB} {
		if n != 0 {
			t.Fatalf("box %s leaked %d wires after teardown", name, n)
		}
	}
}

func TestAudioLeavesFirstAfterStallOnBothNetBuffers(t *testing.T) {
	// Principle 2: with net-audio and net-video both backed up behind
	// the same outage, the first message on the wire afterwards is
	// audio — and so is everything until the audio backlog is gone.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	w := []faultinject.Window{{From: stallFrom, To: stallTo}}
	a := New(rt, net, Config{
		Name: "a", Mic: workload.NewTone(400, 12000),
		SinkStalls: map[string][]faultinject.Window{"net-audio": w, "net-video": w},
	})
	sink := net.AddHost("sink")
	l := net.AddLink("l", atm.LinkConfig{Bandwidth: 100_000_000})
	net.OpenCircuit(100, a.Host(), sink, l)
	net.OpenCircuit(300, a.Host(), sink, l)

	type arrival struct {
		at    occam.Time
		video bool
	}
	var got []arrival
	rt.Go("sink", nil, occam.High, func(p *occam.Proc) {
		for {
			m := sink.Rx.Recv(p)
			got = append(got, arrival{p.Now(), m.W.Type() == segment.TypeVideo})
			m.W.Release()
		}
	})
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		startAV(p, a)
		p.SleepUntil(occam.Time(2 * time.Second))
		stopAV(p, a)
	})
	run(t, rt, 2500*time.Millisecond)

	var inWindow, audioRun, audioAfter, videoAfter int
	for _, m := range got {
		switch {
		case m.at > occam.Time(stallFrom+10*time.Millisecond) && m.at < occam.Time(stallTo):
			inWindow++
		case m.at >= occam.Time(stallTo):
			if m.video {
				videoAfter++
			} else {
				audioAfter++
				if videoAfter == 0 {
					audioRun++
				}
			}
		}
	}
	if inWindow != 0 {
		t.Fatalf("%d messages reached the wire while both network buffers were stalled", inWindow)
	}
	if audioAfter == 0 || videoAfter == 0 {
		t.Fatalf("after the window: %d audio and %d video messages, want both to resume", audioAfter, videoAfter)
	}
	// The whole audio backlog (limit 32 + the head item) goes first.
	if audioRun != netAudioBufferSegments+1 {
		t.Fatalf("%d audio messages led the wire after the stall, want the whole backlog of %d",
			audioRun, netAudioBufferSegments+1)
	}
	if n := a.WirePoolLeaked(); n != 0 {
		t.Fatalf("box a leaked %d wires after teardown", n)
	}
}

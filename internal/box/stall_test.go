package box

import (
	"fmt"
	"strings"
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
		p.SleepUntil(occam.Time(stallFrom))
		lat := b.Mixer().Playout(100) // a stream not yet played has no histogram to keep
		n0, sum0 := lat.Count(), lat.Mean()*time.Duration(lat.Count())
		p.SleepUntil(occam.Time(stallTo))
		res.audioInWindow = lat.Count() - n0
		res.windowLatency = (lat.Mean()*time.Duration(lat.Count()) - sum0) / time.Duration(res.audioInWindow)
		res.videoAtWindowEnd = b.DisplayStats().Segments
		p.SleepUntil(occam.Time(2500 * time.Millisecond))
		stopAV(p, a)
	})
	run(t, rt, 3*time.Second)
	res.meanLatency = b.Mixer().Playout(100).Mean()
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

// TestFullOutputReportedAtItsMinimumPeriod: a box's own microphone
// looped to its loudspeaker, whose sink stalls for 1 s. The full
// speaker output is reported to the host log at most once per
// reportMinPeriod, so at most 11 times, while switch_full_drops_total
// counts every drop.
func TestFullOutputReportedAtItsMinimumPeriod(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	reg := obs.New(rt)
	a := New(rt, atm.New(rt), Config{Name: "a", Mic: workload.NewTone(400, 12000), Obs: reg,
		SinkStalls: map[string][]faultinject.Window{"speaker": {{From: stallFrom, To: stallFrom + time.Second}}}})
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutSpeaker}})
		a.StartMic(p, 1)
	})
	run(t, rt, stallFrom+1500*time.Millisecond)

	if tr := reg.Tracer(); tr.Total() > uint64(tr.Cap()) {
		t.Fatalf("the trace ring overflowed: %d events", tr.Total())
	}
	prefix := fmt.Sprintf("output %d full: dropping", bufSpeaker)
	var n int
	var last occam.Time
	for _, e := range reports(reg, "a.switch") {
		if e.Kind != obs.EvDrop || !strings.HasPrefix(e.Detail, prefix) {
			continue
		}
		if n > 0 && e.At.Sub(last) < reportMinPeriod {
			t.Errorf("report at %v only %v after the one before", e.At, e.At.Sub(last))
		}
		n, last = n+1, e.At
	}
	drops := counter(t, reg, "switch_full_drops_total", obs.L("box", "a"), obs.L("output", "speaker"))
	if n == 0 || n > 11 {
		t.Errorf("%d reports of the full output in a 1 s stall, want 1 to 11", n)
	}
	if drops < 100 {
		t.Errorf("switch_full_drops_total %d, want every drop of a 1 s stall counted, not the %d reports", drops, n)
	}
}

// TestSwitchDegradesAllButOneStream: two audio streams play at b's
// loudspeaker — b's own microphone looped back as stream 1 and a's over
// the network as stream 100 — and the speaker's sink stalls for 500 ms.
// The switch degrades at most the older of the two (principle 3 never
// sheds every stream of an output), so its overload trace never says
// more than "degrading 1 oldest", every age drop is the older stream's,
// and one relax step after the last forced drop the output has
// recovered. Of two routes set at one instant the lower-numbered stream
// is the older, as in the overload controller's shed order.
func TestSwitchDegradesAllButOneStream(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, second uint32        // the streams in the order their routes are set
		gap           time.Duration // between the two
		older         uint32
	}{
		{"1 ms apart", 1, 100, time.Millisecond, 1},
		{"one instant", 100, 1, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := occam.NewRuntime()
			defer rt.Shutdown()
			reg := obs.New(rt)
			a, b, _ := twoBoxes(rt,
				Config{Mic: workload.NewTone(400, 12000)},
				Config{Mic: workload.NewTone(300, 9000), Obs: reg,
					SinkStalls: map[string][]faultinject.Window{"speaker": {{From: stallFrom, To: stallTo}}}},
				100)
			var lastDrop occam.Time // when b's speaker last refused a segment, to the ms
			rt.Go("control", nil, occam.High, func(p *occam.Proc) {
				b.SetRoute(p, Route{Stream: tc.first, Outputs: []Output{OutSpeaker}})
				p.Sleep(tc.gap)
				b.SetRoute(p, Route{Stream: tc.second, Outputs: []Output{OutSpeaker}})
				a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100}})
				b.StartMic(p, 1)
				a.StartMic(p, 1)
				var seen uint64
				for {
					p.Sleep(time.Millisecond)
					if n := b.swStats.FullDrops[bufSpeaker]; n != seen {
						seen, lastDrop = n, p.Now()
					}
				}
			})
			run(t, rt, stallTo+1500*time.Millisecond)

			if tr := reg.Tracer(); tr.Total() > uint64(tr.Cap()) {
				t.Fatalf("the trace ring overflowed: %d events", tr.Total())
			}
			if lastDrop == 0 {
				t.Fatal("the stalled speaker never refused a segment")
			}
			var degraded int
			var recovered []occam.Time
			ageDrops := map[uint32]uint64{}
			for _, e := range reports(reg, "b.switch") {
				switch e.Kind {
				case obs.EvOverload:
					degraded++
					if e.Detail != "output speaker full, degrading 1 oldest" {
						t.Errorf("at %v: %q; of two streams the switch degrades the older alone", e.At, e.Detail)
					}
				case obs.EvDrop:
					if e.Detail == "age-degrade speaker" {
						ageDrops[e.Stream]++
					}
				case obs.EvRecover:
					recovered = append(recovered, e.At)
				}
			}
			if degraded == 0 {
				t.Fatal("the switch never degraded the speaker's older stream")
			}
			// Each drop at the speaker is one stream's, full or by age.
			st := b.swStats
			if ages := st.AgeDrops[bufSpeaker]; ageDrops[tc.older] != ages || len(ageDrops) != 1 ||
				b.StreamDrops(1)+b.StreamDrops(100) != ages+st.FullDrops[bufSpeaker] {
				t.Errorf("age drops by stream %v, want all %d stream %d's; streams dropped %d and %d of %d full and %d age drops",
					ageDrops, ages, tc.older, b.StreamDrops(1), b.StreamDrops(100), st.FullDrops[bufSpeaker], ages)
			}
			if len(recovered) != 1 {
				t.Fatalf("output speaker recovered at %v, want once", recovered)
			}
			// The relax step fires at the first segment switched more
			// than 500 ms after the last forced drop; segments come
			// every few ms.
			if after := recovered[0].Sub(lastDrop); after <= 499*time.Millisecond || after > 520*time.Millisecond {
				t.Errorf("output speaker recovered %v after the last forced drop, want one 500 ms relax step", after)
			}
		})
	}
}

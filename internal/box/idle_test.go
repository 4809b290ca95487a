package box

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/golden"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/workload"
)

// The audio board's counters across its idle stretches, pinned by what a
// reader sees at chosen instants. The file under testdata/ was recorded
// at the commit before a board with nothing to play stopped taking its
// 2 ms turns, and the change had to reproduce it unedited.

// onGridPropagation delays c's link so that c's segments reach b's
// audio board exactly on b's tick instants.
const onGridPropagation = 1706482 * time.Nanosecond

// audioIdleLog runs box b receiving audio in four stretches with idle
// board time between them, and returns b's counters read at each probe
// instant. Stream 100 plays from a alone; 110 from a, shed and restored
// at b mid-stream; 200 from c, whose segments land on b's tick instants;
// 121–126 are six copies of a's microphone, which overrun b's 2 ms
// budget. With micOpen, b's own microphone runs from 3 ms to 330 ms, to
// a as stream 300.
func audioIdleLog(t *testing.T, micOpen bool, f Features) string {
	t.Helper()
	const ms = time.Millisecond
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	reg := obs.New(rt)
	net := atm.New(rt)
	a := New(rt, net, Config{Name: "a", Mic: workload.NewTone(400, 12000)})
	b := New(rt, net, Config{Name: "b", Mic: workload.NewTone(300, 12000), Features: f, Obs: reg})
	c := New(rt, net, Config{Name: "c", Mic: workload.NewTone(500, 12000)})
	link := func(name string, prop time.Duration) *atm.Link {
		return net.AddLink(name, atm.LinkConfig{Bandwidth: 100_000_000, Propagation: prop})
	}
	ab, cb, ba := link("ab", 100*time.Microsecond), link("cb", onGridPropagation), link("ba", 100*time.Microsecond)
	copies := []uint32{121, 122, 123, 124, 125, 126}
	for _, vci := range append([]uint32{100, 110}, copies...) {
		net.OpenCircuit(vci, a.Host(), b.Host(), ab)
	}
	net.OpenCircuit(200, c.Host(), b.Host(), cb)
	net.OpenCircuit(300, b.Host(), a.Host(), ba)

	speaker := func(p *occam.Proc, bx *Box, streams ...uint32) {
		for _, s := range streams {
			bx.SetRoute(p, Route{Stream: s, Outputs: []Output{OutSpeaker}})
		}
	}
	send := func(p *occam.Proc, bx *Box, vcis ...uint32) {
		bx.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: vcis})
		bx.StartMic(p, 1)
	}
	until := func(p *occam.Proc, at time.Duration) { p.SleepUntil(occam.Time(at)) }
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		speaker(p, b, append([]uint32{100, 110, 200}, copies...)...)
		speaker(p, a, 300)
		if micOpen {
			until(p, 3*ms)
			b.SetRoute(p, Route{Stream: 3, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{300}})
			b.StartMic(p, 3)
		}
		until(p, 10*ms)
		send(p, a, 100)
		until(p, 40*ms)
		a.StopMic(p)
		until(p, 70*ms)
		send(p, a, 110)
		until(p, 90*ms)
		b.DegradeShed(p, 110)
		b.DegradeSettle(110, true)
		until(p, 110*ms)
		b.DegradeRestore(p, 110)
		b.DegradeSettle(110, false)
		until(p, 130*ms)
		a.StopMic(p)
		until(p, 150*ms)
		send(p, c, 200)
		until(p, 170*ms)
		c.StopMic(p)
		until(p, 200*ms)
		send(p, a, copies...)
		until(p, 300*ms)
		a.StopMic(p)
		if micOpen {
			until(p, 330*ms)
			b.StopMic(p)
		}
	})

	var sb strings.Builder
	read := func(at time.Duration) {
		if err := rt.RunUntil(occam.Time(at)); err != nil {
			t.Fatal(err)
		}
		st, mx := b.AudioStats(), b.Mixer()
		fmt.Fprintf(&sb, "%v: ticks %d/%d run %d/%d late %d playing %d stage %v muted %d",
			at, mx.Ticks(int64(rt.Now())), counter(t, reg, "mixer_ticks_total", obs.L("box", "b")),
			st.TicksRun, counter(t, reg, "audio_ticks_total", obs.L("box", "b")), st.LateTicks,
			mx.ActiveStreams(), b.muter.StageAt(int64(at)), b.muter.MutedBlocks())
		for _, id := range []uint32{100, 110, 200, 121, 126} {
			if s := mx.Stats(id); s.Segments > 0 {
				lat := mx.Playout(id)
				fmt.Fprintf(&sb, "\n  s%d seg %d lost %d conceal %d silence %d digest %016x playout n=%d min=%v mean=%v max=%v",
					id, s.Segments, s.LostSegments, s.Concealed, s.Clawback.SilenceInserted, s.Digest,
					lat.Count(), lat.Min(), lat.Mean(), lat.Max())
			}
		}
		if s := a.Mixer().Stats(300); s.Segments > 0 {
			fmt.Fprintf(&sb, "\n  mic blocks %d segs %d, at a: seg %d digest %016x", st.MicBlocks, st.MicSegs, s.Segments, s.Digest)
		}
		sb.WriteByte('\n')
	}
	const us = time.Microsecond
	// Probes on tick instants and after them by the idle grant's length:
	// 150 µs bare, 550 µs with muting and interface, each 200 µs later
	// while the microphone's block comes first.
	tick := func(at time.Duration) {
		for _, d := range []time.Duration{0, 150 * us, 350 * us, 550 * us, 750 * us} {
			read(at + d)
		}
	}
	read(1 * ms)
	read(2 * ms)
	tick(8 * ms) // before the first delivery
	read(14 * ms)
	read(16*ms + 500*us)
	tick(30 * ms)  // playing
	tick(60 * ms)  // idle: 100 deactivated
	read(80 * ms)  // 110 playing
	tick(100 * ms) // 110 shed
	tick(120 * ms) // restored
	read(140 * ms)
	tick(150 * ms)
	// 200's segments land on tick instants, the first at 154 ms, and the
	// tick there pops it.
	for _, at := range []time.Duration{154*ms - 1, 154 * ms, 154*ms + 150*us, 156 * ms, 158 * ms} {
		read(at)
	}
	tick(190 * ms)
	read(250 * ms) // six copies: every tick overruns
	read(300 * ms)
	for _, at := range []time.Duration{302, 304, 306, 308, 310} {
		tick(at * ms) // right after the last overrunning tick
	}
	tick(320 * ms)
	tick(340 * ms) // b's microphone closed
	read(400*ms + 1)
	return sb.String()
}

func TestAudioBoardCountersAcrossIdleStretches(t *testing.T) {
	for _, v := range []struct {
		name    string
		micOpen bool
		f       Features
	}{
		{"mic-closed", false, Features{}},
		{"mic-open", true, Features{}},
		{"mic-closed-muting-interface", false, Features{Muting: true, Interface: true}},
		{"mic-open-muting-interface", true, Features{Muting: true, Interface: true}},
	} {
		t.Run(v.name, func(t *testing.T) {
			golden.Check(t, "testdata/audio_idle_"+v.name+".golden", audioIdleLog(t, v.micOpen, v.f))
		})
	}
}

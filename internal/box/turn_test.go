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

// The audio board's 2 ms clock, pinned by what it delivers: the values
// below were recorded at the commit before the closed microphone's poll
// and the mixing grant's slice boundaries became scheduler turns and
// audioRx became a call, and the change had to reproduce them.

// firstSegments runs one box whose stream 1, video if asVideo and audio
// if not, goes to a bare network sink for d, lets control issue its commands, and returns
// the first three segments the sink receives, each as describe's line
// and its arrival.
func firstSegments(t *testing.T, asVideo bool, d time.Duration, control func(p *occam.Proc, bx *Box), describe func(w segment.Wire) string) string {
	t.Helper()
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	bx := New(rt, net, Config{Name: "src", Mic: workload.NewTone(400, 12000)})
	sink := net.AddHost("sink")
	l := net.AddLink("l", atm.LinkConfig{Bandwidth: 100_000_000, Propagation: 100 * time.Microsecond})
	net.OpenCircuit(100, bx.Host(), sink, l)
	var got []string
	rt.Go("sink", nil, occam.High, func(p *occam.Proc) {
		for {
			m := sink.Rx.Recv(p)
			if len(got) < 3 {
				got = append(got, fmt.Sprintf("%s arrives %v", describe(m.W), p.Now()))
			}
			m.W.Release()
		}
	})
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		bx.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100}, Video: asVideo})
		control(p, bx)
	})
	run(t, rt, d)
	return strings.Join(got, "\n")
}

// firstMicSegments is firstSegments for the microphone stream, as "seq
// stamp arrival" lines.
func firstMicSegments(t *testing.T, control func(p *occam.Proc, bx *Box)) string {
	t.Helper()
	return firstSegments(t, false, 60*time.Millisecond, control, func(w segment.Wire) string {
		return fmt.Sprintf("seq %d stamp %v", w.Seq(), segment.TimestampTime(w.Timestamp()))
	})
}

func TestClosedMicrophoneTakesCommandsOnItsGrid(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name    string
		control func(p *occam.Proc, bx *Box)
		want    string
	}{
		{
			// control's timer for t+10ms was armed at t+0, before the
			// micReader armed its own at t+8ms: control runs first and
			// the poll of that same instant finds the command.
			name: "on a grid instant, ahead of the poll",
			control: func(p *occam.Proc, bx *Box) {
				p.SleepUntil(occam.Time(10 * ms))
				bx.StartMic(p, 1)
			},
			want: "" +
				"seq 0 stamp t+8ms arrives t+12.351672ms\n" +
				"seq 1 stamp t+11.968ms arrives t+16.351672ms\n" +
				"seq 2 stamp t+16ms arrives t+20.351672ms",
		},
		{
			// Armed at t+9ms, after the micReader's: the poll of t+10ms
			// has already run, the command waits for t+12ms.
			name: "on a grid instant, behind the poll",
			control: func(p *occam.Proc, bx *Box) {
				p.SleepUntil(occam.Time(9 * ms))
				p.SleepUntil(occam.Time(10 * ms))
				bx.StartMic(p, 1)
			},
			want: "" +
				"seq 0 stamp t+9.984ms arrives t+14.351672ms\n" +
				"seq 1 stamp t+13.952ms arrives t+18.351672ms\n" +
				"seq 2 stamp t+17.984ms arrives t+22.351672ms",
		},
		{
			name: "700µs after a grid instant",
			control: func(p *occam.Proc, bx *Box) {
				p.SleepUntil(occam.Time(10*ms + 700*time.Microsecond))
				bx.StartMic(p, 1)
			},
			want: "" +
				"seq 0 stamp t+9.984ms arrives t+14.351672ms\n" +
				"seq 1 stamp t+13.952ms arrives t+18.351672ms\n" +
				"seq 2 stamp t+17.984ms arrives t+22.351672ms",
		},
		{
			// The closed microphone wakes for a stop command, stays
			// closed, and goes back to polling on the same grid.
			name: "after a stop on a closed microphone",
			control: func(p *occam.Proc, bx *Box) {
				p.SleepUntil(occam.Time(6*ms + 300*time.Microsecond))
				bx.StopMic(p)
				p.SleepUntil(occam.Time(13 * ms))
				bx.StartMic(p, 1)
			},
			want: "" +
				"seq 0 stamp t+11.968ms arrives t+16.351672ms\n" +
				"seq 1 stamp t+16ms arrives t+20.351672ms\n" +
				"seq 2 stamp t+19.968ms arrives t+24.351672ms",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := firstMicSegments(t, c.control); got != c.want {
				t.Errorf("first three segments:\n%s\nwant:\n%s", got, c.want)
			}
		})
	}
}

// The capture board's 40 ms frame clock, pinned the same way: with no
// stream open it polls for a command once a frame, and the first frame it
// serves is the first whose poll finds StartCamera waiting. The values
// were recorded while the idle board's polls were taken by the scheduler,
// and a change to how they are taken must reproduce them.
func TestIdleCaptureBoardTakesCommandsOnItsFrames(t *testing.T) {
	const ms = time.Millisecond
	start := func(p *occam.Proc, bx *Box) {
		bx.StartCamera(p, CameraStream{Stream: 1, Rect: video.Rect{W: 64, H: 32}, Rate: video.Rate{Num: 1, Den: 1}})
	}
	cases := []struct {
		name    string
		control func(p *occam.Proc, bx *Box)
		want    string
	}{
		{
			// control's timer for t+80ms was armed at t+0, before the
			// capture board armed its own at t+40ms: control runs first
			// and the poll of that same frame finds the command.
			name: "on a frame instant, ahead of the poll",
			control: func(p *occam.Proc, bx *Box) {
				p.SleepUntil(occam.Time(80 * ms))
				start(p, bx)
			},
			want: "" +
				"seq 0 frame 0 part 0/2 stamp t+90.112ms arrives t+90.400194ms\n" +
				"seq 1 frame 0 part 1/2 stamp t+100.096ms arrives t+100.400194ms\n" +
				"seq 2 frame 1 part 0/2 stamp t+130.112ms arrives t+130.400194ms",
		},
		{
			// Armed at t+50ms, after the capture board's: the poll of
			// t+80ms has already run, the command waits for t+120ms.
			name: "on a frame instant, behind the poll",
			control: func(p *occam.Proc, bx *Box) {
				p.SleepUntil(occam.Time(50 * ms))
				p.SleepUntil(occam.Time(80 * ms))
				start(p, bx)
			},
			want: "" +
				"seq 0 frame 0 part 0/2 stamp t+130.112ms arrives t+130.400194ms\n" +
				"seq 1 frame 0 part 1/2 stamp t+140.096ms arrives t+140.400194ms\n" +
				"seq 2 frame 1 part 0/2 stamp t+170.112ms arrives t+170.400194ms",
		},
		{
			name: "7ms after a frame instant",
			control: func(p *occam.Proc, bx *Box) {
				p.SleepUntil(occam.Time(87 * ms))
				start(p, bx)
			},
			want: "" +
				"seq 0 frame 0 part 0/2 stamp t+130.112ms arrives t+130.400194ms\n" +
				"seq 1 frame 0 part 1/2 stamp t+140.096ms arrives t+140.400194ms\n" +
				"seq 2 frame 1 part 0/2 stamp t+170.112ms arrives t+170.400194ms",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := firstSegments(t, true, 240*ms, c.control, func(w segment.Wire) string {
				var v segment.Video
				if err := w.DecodeVideoInto(&v); err != nil {
					return err.Error()
				}
				return fmt.Sprintf("seq %d frame %d part %d/%d stamp %v",
					v.Seq, v.FrameNumber, v.SegmentNum, v.NumSegments, segment.TimestampTime(v.Timestamp))
			})
			if got != c.want {
				t.Errorf("first three segments:\n%s\nwant:\n%s", got, c.want)
			}
		})
	}
}

func TestAudioBoardCrashDiscardsAtDelivery(t *testing.T) {
	// b's audio board is down from 100 to 200 ms: what the server sends
	// it in the window is discarded on arrival, counted, traced once,
	// and every wire still goes back to its pool.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	reg := obs.New(rt)
	crashes := map[string][]faultinject.Window{"audio": {{From: 100 * time.Millisecond, To: 200 * time.Millisecond}}}
	a, b, _ := twoBoxes(rt,
		Config{Mic: workload.NewTone(400, 12000)},
		Config{Obs: reg, Crashes: crashes}, 100)
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100}})
		b.SetRoute(p, Route{Stream: 100, Outputs: []Output{OutSpeaker}})
		a.StartMic(p, 1)
		p.SleepUntil(occam.Time(400 * time.Millisecond))
		a.StopMic(p)
		a.CloseRoute(p, 1)
	})
	run(t, rt, 500*time.Millisecond)

	drops := counter(t, reg, "fault_crash_drops_total", obs.L("box", "b"), obs.L("board", "audio"))
	st := b.Mixer().Stats(100)
	if drops != 25 || st.Segments != 74 || st.LostSegments != 25 || st.Digest != 0x242ed996cd3fe8d2 {
		t.Errorf("%d crash drops, %d segments mixed, %d seen lost, digest %#x; recorded 25, 74, 25, 0x242ed996cd3fe8d2",
			drops, st.Segments, st.LostSegments, st.Digest)
	}
	traced := 0
	for _, ev := range reg.Tracer().Events() {
		if ev.Kind == obs.EvFault && ev.Source == "b.audio" {
			traced++
		}
	}
	if traced != 1 {
		t.Errorf("outage traced %d times, want once", traced)
	}
	if la, lb := a.WirePoolLeaked(), b.WirePoolLeaked(); la != 0 || lb != 0 {
		t.Errorf("wires leaked after teardown: a %d, b %d", la, lb)
	}
}

package box

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/faultinject"
	"repro/internal/golden"
	"repro/internal/occam"
	"repro/internal/video"
)

// The video path, pinned by when each segment crosses each hop: camera →
// c2s fifo → captureIn → switch → displayOut → s2m fifo → display. The
// files under testdata/ were recorded at the commit before captureIn and
// displayOut became second instances of the server board's input and
// output handlers, and the change had to reproduce them unedited.

// videoSeg is a segment in flight between two of the hops the log
// watches, known by its sequence number and its size on the wire.
type videoSeg struct {
	seq  uint32
	size uint64
}

// pop takes the head of q, the segment a hop downstream has just been
// seen to move size bytes of (0: unknown) — the path is FIFO, and nothing
// on it drops a segment while its counters at the end of the log read no
// drops.
func pop(t *testing.T, q *[]videoSeg, size uint64, at string) videoSeg {
	// Errorf, not Fatalf: the scheduler trace may be running on a
	// coroutine's goroutine.
	if len(*q) == 0 {
		t.Errorf("%s moved a segment that nothing upstream sent", at)
		return videoSeg{}
	}
	s := (*q)[0]
	*q = (*q)[1:]
	if size != 0 && s.size != size {
		t.Errorf("%s moved %d bytes, but the next segment upstream, seq %d, has %d", at, size, s.seq, s.size)
	}
	return s
}

// videoPathLog runs a full-rate 128×64 camera stream from src's capture
// board to dst's display — one box, or two with a link between — and
// returns, for the virtual interval [from, to]: each segment's sequence
// number and size at the instant the c2s fifo is booked for it (and until
// when), the instant the s2m fifo is, and the instant the display board
// takes it; between them every scheduler line of the two relays, which
// shows displayOut held in its rendezvous ("send s2m") while the display
// copies a frame out; and the path's counters after teardown.
//
// Capture numbers a stream's segments 0, 1, 2… as it books c2s for them,
// so there the ordinal is the sequence number; downstream a segment is
// known by its place in the FIFO, checked against its size.
func videoPathLog(t *testing.T, linked bool, from, to time.Duration, stalls map[string][]faultinject.Window) string {
	t.Helper()
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	var src, dst *Box
	stream := uint32(2)
	if linked {
		src, dst, _ = twoBoxes(rt, Config{}, Config{SinkStalls: stalls}, 300)
		stream = 300
	} else {
		src = New(rt, atm.New(rt), Config{Name: "a", SinkStalls: stalls})
		dst = src
	}

	var (
		out            strings.Builder
		onFifo, onMix  []videoSeg // booked on c2s and not yet on s2m; on s2m and not yet taken
		c2s, s2m, took uint64
		seq            uint32
	)
	relays := []string{src.cfg.Name + ".captureIn", dst.cfg.Name + ".displayOut"}
	rt.Trace = func(line string) {
		logging := rt.Now() >= occam.Time(from) && rt.Now() <= occam.Time(to)
		_, waits, _ := strings.Cut(line, ": ")
		if n := src.captureToServer.BytesSent(); n != c2s {
			s := videoSeg{seq, n - c2s}
			seq, c2s, onFifo = seq+1, n, append(onFifo, s)
			if logging {
				fmt.Fprintf(&out, "%v seq %d, %d bytes: c2s booked, capture to %s\n", rt.Now(), s.seq, s.size, waits)
			}
		}
		if n := dst.serverToMixer.BytesSent(); n != s2m {
			s := pop(t, &onFifo, n-s2m, "s2m")
			s2m, onMix = n, append(onMix, s)
			if logging {
				fmt.Fprintf(&out, "%v seq %d: s2m booked, displayOut to %s\n", rt.Now(), s.seq, waits)
			}
		}
		if n := dst.displayStat.Segments; n != took {
			s := pop(t, &onMix, 0, "the display board")
			took = n
			if logging {
				fmt.Fprintf(&out, "%v seq %d: taken by the display board\n", rt.Now(), s.seq)
			}
		}
		if logging {
			for _, name := range relays {
				if strings.Contains(line, name) {
					out.WriteString("    " + line + "\n")
				}
			}
		}
	}

	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		outputs := []Output{OutDisplay}
		if linked {
			src.SetRoute(p, Route{Stream: 2, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{300}, Video: true})
			dst.SetRoute(p, Route{Stream: 300, Outputs: outputs})
		} else {
			src.SetRoute(p, Route{Stream: 2, Outputs: outputs})
		}
		src.StartCamera(p, CameraStream{Stream: 2, Rect: video.Rect{W: 128, H: 64}, Rate: video.Rate{Num: 1, Den: 1}})
		p.SleepUntil(occam.Time(to))
		src.StopCamera(p, 2)
		p.Sleep(100 * time.Millisecond)
		src.CloseRoute(p, 2)
		dst.CloseRoute(p, stream)
	})
	run(t, rt, to+200*time.Millisecond)

	st := dst.DisplayStats()
	fmt.Fprintf(&out, "sent %d, displayed %d segments in %d frames, %d decode errors, %d dropped at a full display buffer\n",
		seq, st.Segments, st.Frames, st.DecodeErrs, dst.SwitchStats().FullDrops[bufDisplay])
	fmt.Fprintf(&out, "wires leaked: %d at the source, %d at the display\n", src.WirePoolLeaked(), dst.WirePoolLeaked())
	if len(onFifo)+len(onMix) != 0 || src.WirePoolLeaked() != 0 || dst.WirePoolLeaked() != 0 {
		t.Errorf("after teardown %d segments are still between c2s and s2m, %d between s2m and the display; wires leaked %d, %d",
			len(onFifo), len(onMix), src.WirePoolLeaked(), dst.WirePoolLeaked())
	}
	return out.String()
}

func TestVideoPathLog(t *testing.T) {
	const ms = time.Millisecond
	for _, c := range []struct {
		name     string
		linked   bool
		from, to time.Duration
		stalls   map[string][]faultinject.Window
	}{
		{name: "local", to: 150 * ms},
		{name: "linked", linked: true, to: 150 * ms},
		// The display sink is wedged for three frames: its buffer absorbs
		// them, and drains afterwards as fast as the display board takes
		// segments, with displayOut held in its rendezvous meanwhile.
		{name: "stalled", from: 170 * ms, to: 400 * ms,
			stalls: map[string][]faultinject.Window{"display": {{From: 180 * ms, To: 300 * ms}}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := videoPathLog(t, c.linked, c.from, c.to, c.stalls)
			for _, want := range []string{"c2s booked", "s2m booked", "taken by the display board", "displayOut: send "} {
				if !strings.Contains(got, want) {
					t.Errorf("log has no %q line", want)
				}
			}
			golden.Check(t, "testdata/videopath_"+c.name+".golden", got)
		})
	}
}

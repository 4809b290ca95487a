package box

import (
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/video"
)

// The display board's two ways of throwing a segment away (§3.8). Broken
// framing — a line length running past the data, or a line count other
// than the header's NumLines — is reported as "corrupt"; a line whose
// compressed body is shorter than the width only counts as a decode
// error. Recorded at the commit before the display decoded a segment as
// one band; the change had to keep it passing unedited.
func TestDisplayDiscardsCorruptAndTruncatedSegments(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	reg := obs.New(rt)
	bx := New(rt, atm.New(rt), Config{Name: "d", Obs: reg})

	const width = 16
	row := func(seed int) []byte {
		l := make([]byte, width)
		for i := range l {
			l[i] = byte(40 + 9*i + seed)
		}
		return l
	}
	lp := video.LineParams{Shift: 1}
	line1, _ := video.CompressLine(row(0), lp)
	line2, _ := video.CompressLine(row(70), lp)
	line3, _ := video.CompressLine(row(130), lp)
	pack := func(lines ...[]byte) []byte {
		var d []byte
		for _, l := range lines {
			d = append(d, byte(len(l)>>8), byte(len(l)))
			d = append(d, l...)
		}
		return d
	}
	rt.Go("inject", nil, occam.High, func(p *occam.Proc) {
		send := func(stream, lines uint32, data []byte) {
			// Segment 0 of a two-segment frame: no frame ever completes,
			// so the display board only decodes.
			w := bx.wires.Encode(segment.NewVideo(0, p.Now(), 0, 2, 0, 0, 0, width, 0, lines, data))
			bx.serverToMixer.Send(p, wireMsg{Stream: stream, W: w}, w.Len())
			p.Sleep(150 * time.Millisecond) // past the report rate limit
		}
		// Streams 1 and 2 decode cleanly.
		send(1, 1, pack(line1))
		send(2, 1, pack(line2))
		// Stream 1 with its only line's length running past the data,
		// then with one line where the header says two.
		send(1, 1, []byte{0, byte(len(line1) + 4), line1[0], line1[1]})
		send(1, 2, pack(line1))
		// Stream 2: line 0 decodes, line 1 is a header with no body.
		send(2, 2, pack(line3, line1[:1]))
	})
	run(t, rt, time.Second)

	st := bx.DisplayStats()
	if st.Segments != 5 || st.DecodeErrs != 3 {
		t.Errorf("display took %d segments with %d decode errors, want 5 and 3", st.Segments, st.DecodeErrs)
	}
	var corrupt []string
	for _, e := range reports(reg, "d.display") {
		if strings.Contains(e.Detail, "corrupt") {
			corrupt = append(corrupt, e.Detail)
		}
	}
	if len(corrupt) != 2 || !strings.HasPrefix(corrupt[0], "stream 1:") || !strings.HasPrefix(corrupt[1], "stream 1:") {
		t.Errorf("corrupt reports %q, want two for stream 1 and none for stream 2", corrupt)
	}
	if n := bx.WirePoolLeaked(); n != 0 {
		t.Errorf("%d wires leaked", n)
	}
}

// TestDisplayDiscardsSegmentsOffItsFrame: a 256×128 camera sends two
// streams to a box whose display is 128×64, one from below the
// display's last line and one from right of its last column. Each
// segment is thrown away as corrupt before it is decoded (§3.8): no
// frame is shown, and every wire goes back to its pool.
func TestDisplayDiscardsSegmentsOffItsFrame(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	reg := obs.New(rt)
	a, b, _ := twoBoxes(rt, Config{CameraW: 256, CameraH: 128}, Config{Obs: reg}, 300, 301)
	full := video.Rate{Num: 1, Den: 1}
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 2, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{300}, Video: true})
		a.SetRoute(p, Route{Stream: 3, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{301}, Video: true})
		b.SetRoute(p, Route{Stream: 300, Outputs: []Output{OutDisplay}})
		b.SetRoute(p, Route{Stream: 301, Outputs: []Output{OutDisplay}})
		a.StartCamera(p, CameraStream{Stream: 2, Rect: video.Rect{Y: 64, W: 128, H: 64}, Rate: full})
		a.StartCamera(p, CameraStream{Stream: 3, Rect: video.Rect{X: 128, W: 128, H: 64}, Rate: full})
		p.SleepUntil(occam.Time(900 * time.Millisecond))
		a.StopCamera(p, 2)
		a.StopCamera(p, 3)
	})
	run(t, rt, time.Second)

	st := b.DisplayStats()
	if st.Segments < 80 || st.DecodeErrs != st.Segments || st.Frames != 0 {
		t.Errorf("display took %d segments with %d decode errors and showed %d frames; want ≥ 80, all of them errors, and none",
			st.Segments, st.DecodeErrs, st.Frames)
	}
	streams := make(map[string]bool)
	for _, e := range reports(reg, "b.display") {
		if stream, ok := strings.CutSuffix(e.Detail, ": corrupt segment discarded"); ok {
			streams[stream] = true
		}
	}
	if !streams["stream 300"] || !streams["stream 301"] {
		t.Errorf("corrupt reports for %v, want both streams", streams)
	}
	if la, lb := a.WirePoolLeaked(), b.WirePoolLeaked(); la != 0 || lb != 0 {
		t.Errorf("wires leaked: a %d, b %d", la, lb)
	}
}

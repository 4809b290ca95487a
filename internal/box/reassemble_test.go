package box

import (
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/video"
)

// TestReassemblyThrowsAwayWholeSegments hands the network interface
// chunked video (A4) message by message, as the network delivers it.
// The box has no route for the VCI, so every segment the interface
// completes counts as a switch NoRoute and every one it discards as a
// CorruptDrop; the sender's pool shows the wire references the box still
// holds. A damaged segment is thrown away whole (§3.8), and only that
// segment: a duplicate chunk is ignored, and a chunk numbered as no
// honest sender numbers one is discarded as corrupt.
func TestReassemblyThrowsAwayWholeSegments(t *testing.T) {
	type chunk struct {
		seq          uint32
		index, total int32
		corrupt      bool
	}
	for _, c := range []struct {
		name               string
		chunks             []chunk
		delivered, corrupt uint64
		held               int
	}{
		{"whole", []chunk{{1, 0, 2, false}, {1, 1, 2, false}}, 1, 0, 0},
		{"corrupt chunk", []chunk{{1, 0, 2, true}, {1, 1, 2, false}}, 0, 1, 0},
		{"clean after an abandoned corrupt partial", []chunk{{1, 0, 2, true}, {2, 0, 2, false}, {2, 1, 2, false}}, 1, 0, 0},
		{"duplicate with a chunk missing", []chunk{{1, 0, 2, false}, {1, 0, 2, false}}, 0, 0, 1},
		{"duplicate, then the missing chunk", []chunk{{1, 1, 2, false}, {1, 1, 2, false}, {1, 0, 2, false}}, 1, 0, 0},
		{"index at its total", []chunk{{1, 2, 2, false}}, 0, 1, 0},
		{"negative index", []chunk{{1, -1, 2, false}}, 0, 1, 0},
		{"total too large", []chunk{{1, 0, maxChunks + 1, false}}, 0, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := occam.NewRuntime()
			defer rt.Shutdown()
			bx := New(rt, atm.New(rt), Config{Name: "rx"})
			src := segment.NewWirePool()
			rt.Go("network", nil, occam.High, func(p *occam.Proc) {
				for _, ch := range c.chunks {
					w := src.Encode(segment.NewVideo(ch.seq, p.Now(), 0, 1, 0, 0, 0, 16, 0, 1, make([]byte, 2000)))
					bx.Host().Deliver(p, atm.Message{VCI: 7, Size: netChunkSize, W: w,
						ChunkIndex: ch.index, ChunkTotal: ch.total, Corrupt: ch.corrupt})
				}
			})
			run(t, rt, 100*time.Millisecond)
			st := bx.SwitchStats()
			if st.NoRoute != c.delivered || st.CorruptDrops != c.corrupt || src.Leaked() != c.held {
				t.Errorf("%d segments delivered, %d discarded as corrupt, %d wires held; want %d, %d and %d",
					st.NoRoute, st.CorruptDrops, src.Leaked(), c.delivered, c.corrupt, c.held)
			}
			if got := bx.StreamDrops(7); got != c.corrupt {
				t.Errorf("stream 7 counts %d drops, want %d", got, c.corrupt)
			}
		})
	}
}

// TestInterleavedSegmentPastMaxChunksArrives: a 512×512 band sent as one
// segment is well over maxChunks × netChunkSize bytes. Interleaved (A4),
// netOut cuts it into maxChunks chunks, the last taking the rest, so the
// receiver, which refuses a larger chunk count as corrupt, reassembles
// and shows every frame.
func TestInterleavedSegmentPastMaxChunksArrives(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	a, b, _ := twoBoxes(rt, Config{CameraW: 512, CameraH: 512, InterleaveNetwork: true}, Config{CameraW: 512, CameraH: 512}, 300)
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		a.SetRoute(p, Route{Stream: 2, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{300}, Video: true})
		b.SetRoute(p, Route{Stream: 300, Outputs: []Output{OutDisplay}})
		a.StartCamera(p, CameraStream{Stream: 2, Rect: video.Rect{W: 512, H: 512}, Rate: video.Rate{Num: 1, Den: 1}, SegsPerFrame: 1})
	})
	run(t, rt, 500*time.Millisecond)
	if st, sw := b.DisplayStats(), b.SwitchStats(); st.Frames < 10 || sw.CorruptDrops != 0 {
		t.Errorf("%d frames shown and %d segments discarded as corrupt; want ≥ 10 and none", st.Frames, sw.CorruptDrops)
	}
}

package repository

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/occam"
	"repro/internal/segment"
)

func toneSegments(n, blocksPer int) []*segment.Audio {
	var segs []*segment.Audio
	for i := 0; i < n; i++ {
		blocks := make([][]byte, blocksPer)
		for j := range blocks {
			b := make([]byte, segment.BlockSamples)
			for k := range b {
				b[k] = byte(i*blocksPer + j)
			}
			blocks[j] = b
		}
		at := occam.Time(int64(i*blocksPer) * int64(segment.BlockDuration))
		segs = append(segs, segment.NewAudio(uint32(i), at, blocks))
	}
	return segs
}

func TestRecordOverNetwork(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	src := net.AddHost("src")
	repo := New(rt, net, "repo")
	l := net.AddLink("sr", atm.LinkConfig{Bandwidth: 100_000_000})
	net.OpenCircuit(7, src, repo.Host(), l)

	segs := toneSegments(50, 2)
	pool := segment.NewWirePool()
	rt.Go("send", nil, occam.Low, func(p *occam.Proc) {
		for _, s := range segs {
			p.Sleep(4 * time.Millisecond)
			w := pool.Encode(s)
			if src.Send(p, atm.Message{VCI: 7, Size: w.Len(), W: w}) != nil {
				w.Release()
			}
		}
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rec := repo.Recording(7)
	if rec == nil || len(rec.Segments) != 50 {
		t.Fatalf("recorded %v", rec)
	}
	if rec.Blocks() != 100 || rec.Duration() != 200*time.Millisecond {
		t.Fatalf("blocks=%d duration=%v", rec.Blocks(), rec.Duration())
	}
	if rec.LostSegments != 0 {
		t.Fatalf("lost %d on clean path", rec.LostSegments)
	}
}

func TestRecorderDetectsLoss(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	src := net.AddHost("src")
	repo := New(rt, net, "repo")
	net.OpenCircuit(7, src, repo.Host())
	segs := toneSegments(10, 2)
	pool := segment.NewWirePool()
	rt.Go("send", nil, occam.Low, func(p *occam.Proc) {
		for i, s := range segs {
			if i == 4 || i == 5 {
				continue // lose two segments
			}
			p.Sleep(4 * time.Millisecond)
			w := pool.Encode(s)
			if src.Send(p, atm.Message{VCI: 7, Size: w.Len(), W: w}) != nil {
				w.Release()
			}
		}
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := repo.Recording(7).LostSegments; got != 2 {
		t.Fatalf("LostSegments = %d, want 2", got)
	}
}

func TestRecorderKeepsWhatABoxWouldPlay(t *testing.T) {
	// Sequence numbers 0, 1 (corrupt), 2, 2, 1: a box plays 0 and 2,
	// and so does the recording. The corrupt 1 shows as lost when 2
	// arrives; the second 2 and the late 1 are thrown away. Every wire
	// goes back to its pool.
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	src := net.AddHost("src")
	repo := New(rt, net, "repo")
	net.OpenCircuit(7, src, repo.Host())
	segs := toneSegments(3, 2)
	pool := segment.NewWirePool()
	rt.Go("send", nil, occam.Low, func(p *occam.Proc) {
		for _, a := range []struct {
			seq     int
			corrupt bool
		}{{0, false}, {1, true}, {2, false}, {2, false}, {1, false}} {
			p.Sleep(4 * time.Millisecond)
			w := pool.Encode(segs[a.seq])
			if src.Send(p, atm.Message{VCI: 7, Size: w.Len(), W: w, Corrupt: a.corrupt}) != nil {
				w.Release()
			}
		}
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rec := repo.Recording(7)
	var seqs []uint32
	for _, s := range rec.Segments {
		seqs = append(seqs, s.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint32{0, 2}) || rec.LostSegments != 1 || rec.Corrupt != 1 || rec.LateDuplicates != 2 {
		t.Fatalf("recorded %v, %d lost, %d corrupt, %d late or duplicate; want [0 2], 1, 1, 2",
			seqs, rec.LostSegments, rec.Corrupt, rec.LateDuplicates)
	}
	if pool.FreeLen() != int(pool.News) {
		t.Fatalf("%d of %d wire records returned", pool.FreeLen(), pool.News)
	}
}

func TestResegmentTo40ms(t *testing.T) {
	rec := &Recording{Stream: 1, Segments: toneSegments(100, 2)} // 200 blocks
	merged := rec.Resegment()
	// 200 blocks / 20 per segment = 10 segments of 40 ms each.
	if len(merged.Segments) != 10 {
		t.Fatalf("%d merged segments, want 10", len(merged.Segments))
	}
	for i, s := range merged.Segments {
		if s.Blocks() != segment.RepositoryBlocksPerSegment {
			t.Fatalf("segment %d has %d blocks", i, s.Blocks())
		}
		if len(s.Data) != 320 {
			t.Fatalf("segment %d carries %d bytes, want 320", i, len(s.Data))
		}
		if s.WireSize() != 320+36 {
			t.Fatalf("segment %d wire size %d, want 356", i, s.WireSize())
		}
		if s.Seq != uint32(i) {
			t.Fatalf("segment %d renumbered as %d", i, s.Seq)
		}
	}
	if merged.Blocks() != rec.Blocks() {
		t.Fatal("re-segmentation lost audio")
	}
	// Every byte survives in order.
	want, got := 0, 0
	for _, s := range rec.Segments {
		want += len(s.Data)
	}
	for _, s := range merged.Segments {
		got += len(s.Data)
	}
	if want != got {
		t.Fatalf("bytes %d -> %d", want, got)
	}
	if merged.Segments[0].Data[0] != rec.Segments[0].Data[0] {
		t.Fatal("data reordered")
	}
}

func TestResegmentPartialTail(t *testing.T) {
	rec := &Recording{Stream: 1, Segments: toneSegments(11, 2)} // 22 blocks
	merged := rec.Resegment()
	if len(merged.Segments) != 2 {
		t.Fatalf("%d segments", len(merged.Segments))
	}
	if merged.Segments[1].Blocks() != 2 {
		t.Fatalf("tail has %d blocks, want 2", merged.Segments[1].Blocks())
	}
	if merged.Blocks() != 22 {
		t.Fatal("audio lost at the tail")
	}
}

func TestResegmentCutsHeaderOverhead(t *testing.T) {
	// §3.2: the point of the merge is "to reduce the disk space taken
	// up by headers". Live 2-block segments: 36 header per 32 data
	// (53%); merged: 36 per 320 (10%).
	rec := &Recording{Stream: 1, Segments: toneSegments(200, 2)}
	merged := rec.Resegment()
	liveOv := rec.HeaderOverhead()
	mergedOv := merged.HeaderOverhead()
	if liveOv < 0.5 {
		t.Fatalf("live overhead %.2f, want ≈0.53", liveOv)
	}
	if mergedOv > 0.11 {
		t.Fatalf("merged overhead %.2f, want ≈0.10", mergedOv)
	}
	if rec.StoredBytes() <= merged.StoredBytes() {
		t.Fatal("re-segmentation did not shrink storage")
	}
}

func TestPlaybackAtOriginalCadence(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	repo := New(rt, net, "repo")
	sink := net.AddHost("sink")
	net.OpenCircuit(9, repo.Host(), sink)

	rec := (&Recording{Stream: 1, Segments: toneSegments(50, 2)}).Resegment()
	var arrivals []occam.Time
	rt.Go("rx", nil, occam.High, func(p *occam.Proc) {
		for {
			m := sink.Rx.Recv(p)
			m.W.Release()
			arrivals = append(arrivals, p.Now())
		}
	})
	repo.Playback(rec, 9)
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != len(rec.Segments) {
		t.Fatalf("played %d of %d segments", len(arrivals), len(rec.Segments))
	}
	// 40 ms cadence between segments.
	for i := 1; i < len(arrivals); i++ {
		if gap := arrivals[i].Sub(arrivals[i-1]); gap != 40*time.Millisecond {
			t.Fatalf("gap %v between segments %d and %d", gap, i-1, i)
		}
	}
}

func TestTimestampOffsetPreserved(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	src := net.AddHost("src")
	repo := New(rt, net, "repo")
	net.OpenCircuit(1, src, repo.Host())
	net.OpenCircuit(2, src, repo.Host())
	pool := segment.NewWirePool()
	rt.Go("send", nil, occam.Low, func(p *occam.Proc) {
		a := toneSegments(3, 2)
		// Stream 2 started 102.4 ms (1600 timestamp ticks) later.
		b := toneSegments(3, 2)
		for _, s := range b {
			s.Timestamp += 1600
		}
		send := func(vci uint32, s *segment.Audio) {
			w := pool.Encode(s)
			if src.Send(p, atm.Message{VCI: vci, Size: w.Len(), W: w}) != nil {
				w.Release()
			}
		}
		for i := range a {
			send(1, a[i])
			send(2, b[i])
			p.Sleep(4 * time.Millisecond)
		}
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	r1, r2 := repo.Recording(1), repo.Recording(2)
	offset := segment.TimestampTime(r2.FirstTimestamp).Sub(segment.TimestampTime(r1.FirstTimestamp))
	if offset != 1600*segment.TimestampTick {
		t.Fatalf("timestamp offset %v, want 102.4ms", offset)
	}
	// The offset survives re-segmentation.
	if r2.Resegment().FirstTimestamp != r2.FirstTimestamp {
		t.Fatal("re-segmentation lost the timestamp offset")
	}
}

package allocator

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
)

func run(t *testing.T, rt *occam.Runtime, d time.Duration) {
	t.Helper()
	if err := rt.RunUntil(occam.Time(d)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
}

// testWireBytes returns the encoded form of a small audio segment.
func testWireBytes(seq uint32) []byte {
	blk := make([]byte, segment.BlockSamples)
	for i := range blk {
		blk[i] = byte(seq) + byte(i)
	}
	return segment.NewAudio(seq, 0, [][]byte{blk}).Encode(nil)
}

func TestGetGrantsDistinctBuffers(t *testing.T) {
	rt := occam.NewRuntime()
	pl := New(rt, nil, 4, nil)
	var got []*Buffer
	rt.Go("user", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 4; i++ {
			got = append(got, pl.Get(p))
		}
	})
	run(t, rt, time.Second)
	if len(got) != 4 {
		t.Fatalf("got %d buffers", len(got))
	}
	seen := map[int]bool{}
	for _, b := range got {
		if seen[b.Index] {
			t.Fatalf("buffer %d granted twice", b.Index)
		}
		seen[b.Index] = true
	}
}

func TestGetBlocksWhenExhaustedUntilRelease(t *testing.T) {
	rt := occam.NewRuntime()
	pl := New(rt, nil, 2, nil)
	var grantedAt occam.Time
	rt.Go("hog", nil, occam.Low, func(p *occam.Proc) {
		a := pl.Get(p)
		pl.Get(p)
		p.Sleep(30 * time.Millisecond)
		pl.Release(p, a)
	})
	rt.Go("waiter", nil, occam.Low, func(p *occam.Proc) {
		p.Sleep(time.Millisecond) // let the hog drain the pool
		pl.Get(p)
		grantedAt = p.Now()
	})
	run(t, rt, time.Second)
	if grantedAt != occam.Time(30*time.Millisecond) {
		t.Fatalf("blocked Get granted at %v, want 30ms", grantedAt)
	}
	if pl.Starvations() == 0 {
		t.Fatal("starvation not recorded")
	}
}

func TestReleaseRecyclesBuffer(t *testing.T) {
	rt := occam.NewRuntime()
	pl := New(rt, nil, 1, nil)
	indices := map[int]int{}
	rt.Go("user", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 5; i++ {
			b := pl.Get(p)
			indices[b.Index]++
			pl.Release(p, b)
		}
	})
	run(t, rt, time.Second)
	if indices[0] != 5 {
		t.Fatalf("buffer reuse pattern %v, want index 0 five times", indices)
	}
}

func TestRetainDelaysRecycling(t *testing.T) {
	// A buffer sent to two destinations must survive until both
	// release it.
	rt := occam.NewRuntime()
	pl := New(rt, nil, 1, nil)
	var secondGetAt occam.Time
	rt.Go("splitter", nil, occam.Low, func(p *occam.Proc) {
		b := pl.Get(p)
		pl.Retain(p, b, 1) // now two references
		// Destination 1 finishes immediately.
		pl.Release(p, b)
		// Destination 2 finishes at 10ms.
		p.Sleep(10 * time.Millisecond)
		pl.Release(p, b)
	})
	rt.Go("other", nil, occam.Low, func(p *occam.Proc) {
		p.Sleep(time.Millisecond)
		pl.Get(p) // must wait for destination 2's release
		secondGetAt = p.Now()
	})
	run(t, rt, time.Second)
	if secondGetAt != occam.Time(10*time.Millisecond) {
		t.Fatalf("buffer recycled at %v, want 10ms (after both releases)", secondGetAt)
	}
}

func TestRetainZeroIsNoop(t *testing.T) {
	rt := occam.NewRuntime()
	pl := New(rt, nil, 1, nil)
	rt.Go("user", nil, occam.Low, func(p *occam.Proc) {
		b := pl.Get(p)
		pl.Retain(p, b, 0)
		pl.Release(p, b)
		pl.Get(p) // immediately available again
	})
	run(t, rt, time.Second)
}

func TestGrantedBufferIsClean(t *testing.T) {
	rt := occam.NewRuntime()
	pl := New(rt, nil, 1, nil)
	var clean bool
	rt.Go("user", nil, occam.Low, func(p *occam.Proc) {
		b := pl.Get(p)
		b.SetPayload(testWireBytes(3))
		b.Stream = 7
		pl.Release(p, b)
		b2 := pl.Get(p)
		clean = b2.Payload.IsZero() && b2.Stream == 0
	})
	run(t, rt, time.Second)
	if !clean {
		t.Fatal("recycled buffer not cleaned")
	}
}

func TestStarvationReport(t *testing.T) {
	rt := occam.NewRuntime()
	reports := occam.NewChan[Report](rt, "reports")
	pl := New(rt, nil, 1, reports)
	var starved bool
	rt.Go("collector", nil, occam.High, func(p *occam.Proc) {
		for {
			reports.Recv(p)
			starved = true
		}
	})
	rt.Go("user", nil, occam.Low, func(p *occam.Proc) {
		pl.Get(p)
	})
	run(t, rt, time.Second)
	if !starved {
		t.Fatal("no starvation report when pool drained")
	}
}

// TestStatusReport: the report a dry pool sends states the pool's size,
// and only the grant that dries the pool sends one.
func TestStatusReport(t *testing.T) {
	rt := occam.NewRuntime()
	reports := occam.NewChan[Report](rt, "reports")
	pl := New(rt, nil, 3, reports)
	var got []Report
	rt.Go("collector", nil, occam.High, func(p *occam.Proc) {
		for {
			got = append(got, reports.Recv(p))
		}
	})
	rt.Go("user", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 3; i++ {
			pl.Get(p)
		}
	})
	run(t, rt, time.Second)
	if len(got) != 1 || got[0].Total != 3 || got[0].String() != "allocator: STARVED (0/3 free)" {
		t.Fatalf("reports %v", got)
	}
}

func TestRetainThenMultiReleaseOrdering(t *testing.T) {
	// The §3.4 protocol under wire payloads: a buffer fanned out to
	// three holders survives the first two releases with its payload
	// intact, recycles on the third, and only then is re-granted.
	rt := occam.NewRuntime()
	pl := New(rt, nil, 1, nil)
	want := testWireBytes(9)
	var intact [2]bool
	var regrantAt occam.Time
	rt.Go("fanout", nil, occam.Low, func(p *occam.Proc) {
		b := pl.Get(p)
		b.SetPayload(want)
		pl.Retain(p, b, 2) // three references in total
		pl.Release(p, b)   // holder 1 done at t=0
		intact[0] = bytes.Equal(b.Payload.Bytes(), want)
		p.Sleep(5 * time.Millisecond)
		pl.Release(p, b) // holder 2 done at 5ms
		intact[1] = bytes.Equal(b.Payload.Bytes(), want)
		p.Sleep(5 * time.Millisecond)
		pl.Release(p, b) // holder 3 done at 10ms: buffer recycles
	})
	rt.Go("waiter", nil, occam.Low, func(p *occam.Proc) {
		p.Sleep(time.Millisecond)
		pl.Get(p)
		regrantAt = p.Now()
	})
	run(t, rt, time.Second)
	if !intact[0] || !intact[1] {
		t.Fatal("payload corrupted while references remained")
	}
	if regrantAt != occam.Time(10*time.Millisecond) {
		t.Fatalf("buffer re-granted at %v, want 10ms (after the final release)", regrantAt)
	}
}

func TestReleaseAfterStarvationRecovers(t *testing.T) {
	// Drain the pool, queue several blocked requesters, then release:
	// every blocked Get must eventually be served and the starvation
	// counter records the episode.
	rt := occam.NewRuntime()
	pl := New(rt, nil, 2, nil)
	served := 0
	rt.Go("hog", nil, occam.Low, func(p *occam.Proc) {
		a := pl.Get(p)
		b := pl.Get(p)
		p.Sleep(20 * time.Millisecond)
		pl.Release(p, a)
		p.Sleep(20 * time.Millisecond)
		pl.Release(p, b)
	})
	for i := 0; i < 3; i++ {
		rt.Go("blocked", nil, occam.Low, func(p *occam.Proc) {
			p.Sleep(time.Millisecond)
			b := pl.Get(p)
			served++
			pl.Release(p, b)
		})
	}
	run(t, rt, time.Second)
	if served != 3 {
		t.Fatalf("%d blocked requesters served after starvation, want 3", served)
	}
	if pl.Starvations() == 0 {
		t.Fatal("starvation episode not counted")
	}
}

func TestOverReleasePanics(t *testing.T) {
	// Releasing more references than were taken is a protocol bug the
	// allocator refuses to mask. applyRefChange is exercised directly:
	// a panic inside a process goroutine would kill the test binary.
	rt := occam.NewRuntime()
	pl := New(rt, nil, 1, nil)
	rt.Go("user", nil, occam.Low, func(p *occam.Proc) {
		b := pl.Get(p)
		pl.Release(p, b)
	})
	run(t, rt, time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	pl.applyRefChange(refChange{Index: 0, Delta: -1})
}

func TestSizeAndInvalidPool(t *testing.T) {
	rt := occam.NewRuntime()
	pl := New(rt, nil, 5, nil)
	reg := obs.New(rt)
	pl.Observe(reg, "a")
	if sm, _ := reg.Snapshot().Get("allocator_total", obs.L("box", "a")); sm.Value != 5 {
		t.Fatalf("allocator_total = %v", sm.Value)
	}
	rt.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size pool accepted")
		}
	}()
	New(occam.NewRuntime(), nil, 0, nil)
}

func TestStarvedRequestersAreGrantedInOrderAndCannotBeRobbed(t *testing.T) {
	// The pool is dry when a coroutine's Get and then a stackless
	// process's GetInto queue for it. Two Releases in one turn serve them
	// in that order, and each buffer is in its requester's hands when the
	// Release returns: a High thief woken in between, which runs before
	// either requester does, finds nothing to take.
	rt := occam.NewRuntime()
	pl := New(rt, nil, 2, nil)
	var (
		a, b, first, second, stolen *Buffer
		order                       []string
	)
	thiefSig := occam.NewSignal(rt, "thief")
	rt.Go("hog", nil, occam.Low, func(p *occam.Proc) {
		a, b = pl.Get(p), pl.Get(p)
		p.Sleep(10 * time.Millisecond)
		pl.Release(p, a)
		if second != nil {
			t.Error("the first Release served the second requester")
		}
		pl.Release(p, b)
		if second != b {
			t.Errorf("after the second Release the stackless requester holds %v, want buffer %d", second, b.Index)
		}
		thiefSig.Raise()
	})
	rt.Go("first", nil, occam.Low, func(p *occam.Proc) {
		p.Sleep(time.Millisecond)
		first = pl.Get(p)
		order = append(order, "first")
	})
	asked := false
	rt.GoStep("second", nil, occam.Low, occam.StepFunc(func(p *occam.Proc) {
		switch {
		case p.Now() == 0:
			p.Sleep(2 * time.Millisecond)
		case !asked:
			asked = true
			pl.GetInto(p, &second)
			if !p.Parked() {
				t.Error("GetInto on a dry pool did not park")
			}
		default:
			order = append(order, "second")
		}
	}))
	rt.Go("thief", nil, occam.High, func(p *occam.Proc) {
		thiefSig.Wait(p)
		order = append(order, "thief")
		stolen = pl.Get(p)
	})
	run(t, rt, time.Second)
	if first != a || second != b || stolen != nil {
		t.Errorf("first holds %v, second %v, the thief %v; want buffers %d, %d and nothing", first, second, stolen, a.Index, b.Index)
	}
	if got := fmt.Sprint(order); got != "[thief first second]" {
		t.Errorf("ran in order %s, want [thief first second]", got)
	}
}

func TestGetWouldParkAStacklessProcessPanicsByName(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	pl := New(rt, nil, 1, nil)
	var held *Buffer
	rt.GoStep("taker", nil, occam.Low, occam.StepFunc(func(p *occam.Proc) {
		held = pl.Get(p) // a free buffer: an ordinary call
		pl.Get(p)
	}))
	var got any
	func() {
		defer func() { got = recover() }()
		rt.Run()
	}()
	want := `occam: process "taker" panicked: occam: Pool.Get on a dry pool would park stackless process "taker", which it could not return to`
	if got != want || held == nil {
		t.Errorf("Run panicked with %v holding %v\nwant %s, after one grant", got, held, want)
	}
}

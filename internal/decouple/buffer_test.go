package decouple

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/occam"
)

// run drives rt for d of virtual time and tears it down.
func run(t *testing.T, rt *occam.Runtime, d time.Duration) {
	t.Helper()
	if err := rt.RunUntil(occam.Time(d)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
}

func TestProcessPassesDataThrough(t *testing.T) {
	rt := occam.NewRuntime()
	d := New[int](rt, "buf", 4, nil)
	var got []int
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 10; i++ {
			d.Send(p, i)
		}
	})
	rt.Go("consumer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 10; i++ {
			got = append(got, d.Recv(p))
		}
	})
	run(t, rt, time.Second)
	if len(got) != 10 {
		t.Fatalf("consumer got %d items", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestProcessDecouplesBurst(t *testing.T) {
	// The producer can race ahead of a slow consumer by the buffer
	// depth without blocking — the whole point of decoupling.
	rt := occam.NewRuntime()
	d := New[int](rt, "buf", 8, nil)
	var producerDone occam.Time
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 8; i++ {
			d.Send(p, i)
		}
		producerDone = p.Now()
	})
	rt.Go("consumer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 8; i++ {
			p.Sleep(10 * time.Millisecond)
			d.Recv(p)
		}
	})
	run(t, rt, time.Second)
	if producerDone != 0 {
		t.Fatalf("producer blocked until %v despite free buffer space", producerDone)
	}
}

func TestProcessBlocksProducerWhenFull(t *testing.T) {
	// A full buffer blocks Send "until an item has been read from the
	// buffer", and the consumer's next Recv resumes it.
	rt := occam.NewRuntime()
	d := New[int](rt, "buf", 2, nil)
	var sent int
	var sentAt []occam.Time
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 10; i++ {
			d.Send(p, i)
			sent++
			sentAt = append(sentAt, p.Now())
		}
	})
	var first int
	rt.Go("consumer", nil, occam.Low, func(p *occam.Proc) {
		p.Sleep(100 * time.Millisecond)
		if sent != 3 {
			t.Errorf("producer sent %d items with no consumer, want limit+1 = 3", sent)
		}
		first = d.Recv(p)
	})
	run(t, rt, time.Second)
	if first != 0 {
		t.Fatalf("first item %d, want 0", first)
	}
	// One Recv frees one slot: exactly one more Send completes, at the
	// instant of the Recv.
	if sent != 4 {
		t.Fatalf("producer sent %d after one Recv, want 4", sent)
	}
	if at := sentAt[3]; at != occam.Time(100*time.Millisecond) {
		t.Fatalf("parked Send resumed at %v, want 100ms", at)
	}
}

func TestReadyProtocolImmediateReply(t *testing.T) {
	// Figure 3.6: every input gets an immediate TRUE/FALSE; after a
	// FALSE the producer throws data away, and the buffer accepts
	// again at the virtual instant the consumer takes an item.
	rt := occam.NewRuntime()
	reg := obs.New(rt)
	d := New[int](rt, "buf", 2, reg)
	var accepted int
	var refusedAt, acceptedAgainAt occam.Time = -1, -1
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; ; i++ {
			if !d.Deliver(p, i) {
				refusedAt = p.Now()
				break
			}
			accepted++
		}
		// Poll every millisecond for the slot the consumer frees.
		for !d.Deliver(p, 99) {
			p.Sleep(time.Millisecond)
		}
		acceptedAgainAt = p.Now()
	})
	rt.Go("consumer", nil, occam.Low, func(p *occam.Proc) {
		p.Sleep(50 * time.Millisecond)
		d.Recv(p)
	})
	run(t, rt, time.Second)
	// Limit 2 plus the staged head item: 3 accepted, then FALSE — all
	// at time zero, the producer never blocked.
	if accepted != 3 {
		t.Fatalf("accepted %d items with no consumer, want limit+1 = 3", accepted)
	}
	if refusedAt != 0 {
		t.Fatalf("producer blocked until %v before FALSE", refusedAt)
	}
	if acceptedAgainAt != occam.Time(50*time.Millisecond) {
		t.Fatalf("accepted again at %v, want 50ms", acceptedAgainAt)
	}
	// 1 refusal at t=0 plus one per millisecond poll at 0..49 ms.
	if got := d.Dropped(); got != 51 {
		t.Fatalf("Dropped() = %d, want 51", got)
	}
	if v, _ := reg.Snapshot().Get("decouple_refused_total", obs.L("buffer", "buf")); v.Value != 51 {
		t.Fatalf("decouple_refused_total = %v, want 51", v.Value)
	}
}

func TestReadySenderDropsInsteadOfBlocking(t *testing.T) {
	// Principle 5: with the buffer full, Deliver refuses immediately.
	rt := occam.NewRuntime()
	d := New[int](rt, "buf", 1, nil)
	var delivered, dropped int
	var doneAt occam.Time = -1
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 20; i++ {
			if d.Deliver(p, i) {
				delivered++
			} else {
				dropped++
			}
		}
		doneAt = p.Now()
	})
	run(t, rt, time.Second)
	if delivered != 2 || dropped != 18 {
		t.Fatalf("delivered=%d dropped=%d into a limit-1 buffer with no consumer, want 2 and 18", delivered, dropped)
	}
	if doneAt != 0 {
		t.Fatalf("producer finished at %v, want 0: Deliver must never block", doneAt)
	}
}

func TestReportCommand(t *testing.T) {
	rt := occam.NewRuntime()
	d := New[int](rt, "audio-buf", 4, nil)
	var rep Report
	rt.Go("driver", nil, occam.Low, func(p *occam.Proc) {
		d.Send(p, 1)
		d.Send(p, 2)
		d.Send(p, 3)
		rep = d.Report()
	})
	run(t, rt, time.Second)
	// 3 pushed; the head item is staged outside the ring, so length is
	// 2 and popped 1.
	want := Report{Name: "audio-buf", Length: 2, Limit: 4, Pushed: 3, Popped: 1}
	if rep != want {
		t.Fatalf("report %+v, want %+v", rep, want)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestConservationOnRandomSchedule(t *testing.T) {
	// Nothing is lost or invented: on a seeded random schedule of
	// bursts and pauses, at every consumer step and at the end,
	// pushed == popped + Len() and
	// offered == delivered + refused + queued + staged.
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt := occam.NewRuntime()
		d := New[int](rt, "buf", 1+rng.Intn(6), nil)
		var offered, delivered uint64
		next := 0 // FIFO: the consumer sees the accepted items in order
		var accepted []int
		check := func(when string) {
			rep := d.Report()
			if rep.Pushed != rep.Popped+uint64(rep.Length) {
				t.Fatalf("seed %d %s: pushed %d != popped %d + len %d", seed, when, rep.Pushed, rep.Popped, rep.Length)
			}
			staged := rep.Popped - delivered // popped from the ring, not yet taken
			if staged > 1 {
				t.Fatalf("seed %d %s: %d items staged", seed, when, staged)
			}
			if offered != delivered+d.Dropped()+uint64(rep.Length)+staged {
				t.Fatalf("seed %d %s: offered %d != delivered %d + refused %d + queued %d + staged %d",
					seed, when, offered, delivered, d.Dropped(), rep.Length, staged)
			}
		}
		rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
			for i := 0; i < 400; i++ {
				if rng.Intn(3) == 0 {
					p.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
				}
				offered++
				if d.Deliver(p, i) {
					accepted = append(accepted, i)
				}
				check("after Deliver")
			}
		})
		rt.Go("consumer", nil, occam.Low, func(p *occam.Proc) {
			for {
				v := d.Recv(p)
				if v != accepted[next] {
					t.Errorf("seed %d: received %d, want %d", seed, v, accepted[next])
				}
				next++
				delivered++
				check("after Recv")
				p.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
			}
		})
		run(t, rt, 10*time.Second)
		check("at end")
		if d.Dropped() == 0 || delivered == 0 {
			t.Fatalf("seed %d: schedule exercised nothing (delivered %d, refused %d)", seed, delivered, d.Dropped())
		}
		if delivered != uint64(len(accepted)) {
			t.Fatalf("seed %d: %d accepted but %d delivered after the drain", seed, len(accepted), delivered)
		}
	}
}

func TestStallWithholdsHeadWithoutBlockingConsumer(t *testing.T) {
	// A sink stall withholds the item staged inside the outage, counts
	// the outage once, and never blocks a consumer that polls: TryRecv
	// just reports nothing until the window ends, when the wake signal
	// is raised by timer.
	rt := occam.NewRuntime()
	reg := obs.New(rt)
	d := New[int](rt, "buf", 4, reg)
	from, to := occam.Time(10*time.Millisecond), occam.Time(30*time.Millisecond)
	d.SetStall(func(now occam.Time) occam.Time {
		if now >= from && now < to {
			return to
		}
		return 0
	})
	var gotAt []occam.Time
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(4 * time.Millisecond)
			d.Deliver(p, i)
		}
	})
	rt.Go("consumer", nil, occam.Low, func(p *occam.Proc) {
		for {
			if _, ok := d.TryRecv(p); ok {
				gotAt = append(gotAt, p.Now())
				continue
			}
			d.Wait(p)
		}
	})
	run(t, rt, time.Second)
	ms := func(n int) occam.Time { return occam.Time(time.Duration(n) * time.Millisecond) }
	// Items at 4, 8 pass; 12 is staged inside the window and held to
	// 30 with 16..28 queued behind it (limit 4 + head: just fits); the
	// backlog drains at 30 and the tail flows normally.
	want := []occam.Time{ms(4), ms(8), ms(30), ms(30), ms(30), ms(30), ms(30), ms(32), ms(36), ms(40)}
	if len(gotAt) != len(want) {
		t.Fatalf("consumer got %d items at %v, want %d", len(gotAt), gotAt, len(want))
	}
	for i := range want {
		if gotAt[i] != want[i] {
			t.Fatalf("item %d taken at %v, want %v (all: %v)", i, gotAt[i], want[i], gotAt)
		}
	}
	if v, _ := reg.Snapshot().Get("decouple_stalled_total", obs.L("buffer", "buf")); v.Value != 1 {
		t.Fatalf("decouple_stalled_total = %v, want 1 per outage", v.Value)
	}
	if d.Dropped() != 0 {
		t.Fatalf("refused %d during the stall, want 0 (backlog fits)", d.Dropped())
	}
}

// TestOccupancyIsTheGaugeQuotient: Occupancy reads what
// decouple_queued over decouple_limit reads — the staged head held
// outside both — empty, partly full and full.
func TestOccupancyIsTheGaugeQuotient(t *testing.T) {
	rt := occam.NewRuntime()
	reg := obs.New(rt)
	d := New[int](rt, "buf", 4, reg)
	lb := obs.L("buffer", "buf")
	var got, want []float64
	read := func() {
		snap := reg.Snapshot()
		q, _ := snap.Get("decouple_queued", lb)
		lim, _ := snap.Get("decouple_limit", lb)
		got, want = append(got, d.Occupancy()), append(want, q.Value/lim.Value)
	}
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		read()
		for _, n := range []int{1, 2, 3} { // head staged; 2 of 4 queued; 4 of 4, one refused
			for i := 0; i < n; i++ {
				d.Deliver(p, i)
			}
			read()
		}
	})
	run(t, rt, time.Second)
	if fmt.Sprint(want) != "[0 0 0.5 1]" || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Occupancy read %v, the gauges %v; want both [0 0 0.5 1]", got, want)
	}
}

package occam

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestProcessPanicSurfacesFromRunUntil(t *testing.T) {
	faults := map[string]func(rt *Runtime, p *Proc){
		"in user code": func(rt *Runtime, p *Proc) { panic("boom") },
		// Raised with the runtime lock held; RunUntil must still get it back.
		"inside a primitive": func(rt *Runtime, p *Proc) {
			tm := NewTimer(rt, func(Sched) {})
			tm.Schedule(p.Now().Add(time.Second))
			tm.Schedule(p.Now().Add(time.Second))
		},
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			rt := NewRuntime()
			defer rt.Shutdown()
			ch := NewChan[int](rt, "never")
			rt.Go("bystander", nil, Low, func(p *Proc) { ch.Recv(p) })
			rt.Go("faulty", nil, Low, func(p *Proc) {
				p.Sleep(time.Millisecond)
				fault(rt, p)
			})
			var got any
			func() {
				defer func() { got = recover() }()
				rt.Run()
			}()
			if msg, _ := got.(string); !strings.Contains(msg, `process "faulty" panicked`) {
				t.Fatalf("Run panicked with %v, want the faulty process named", got)
			}
			// The runtime is left consistent: the faulty process is
			// gone, the clock readable, and a further run finds the
			// bystander still blocked.
			if rt.NumProcs() != 1 || rt.Now() != Time(time.Millisecond) {
				t.Fatalf("after the panic: %d procs at %v, want 1 at 1ms", rt.NumProcs(), rt.Now())
			}
			if err := rt.RunUntil(Time(2 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestShutdownReleasesEveryGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := NewRuntime()
	ch := NewChan[int](rt, "never")
	for i := 0; i < 4; i++ {
		rt.Go("parked", nil, Low, func(p *Proc) { ch.Recv(p) })
	}
	rt.Go("sleeper", nil, High, func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	sig := NewSignal(rt, "sig")
	rt.Go("woken", nil, Low, func(p *Proc) { sig.Wait(p) })
	if err := rt.RunUntil(Time(3 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// Runnable and started: readied from outside the run.
	sig.Raise()
	// Runnable but never started: created after the run, so in the run
	// queue with their bodies not yet entered.
	started := false
	for i := 0; i < 3; i++ {
		rt.Go("unstarted", nil, Low, func(p *Proc) { started = true })
	}
	if n := runtime.NumGoroutine(); n <= before {
		t.Fatalf("%d goroutines with live processes, %d before: the test cannot see a leak", n, before)
	}

	rt.Shutdown()
	rt.Shutdown() // idempotent
	if started {
		t.Error("Shutdown ran the body of a process that had never been scheduled")
	}
	// Not "!=": the previous test's runner goroutine may still have
	// been exiting when before was read.
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Shutdown, %d before NewRuntime", n, before)
	}
	if rt.NumProcs() != 0 {
		t.Errorf("%d procs alive after Shutdown", rt.NumProcs())
	}
	if err := rt.RunUntil(Time(time.Second)); err == nil {
		t.Error("RunUntil after Shutdown returned nil")
	}
	defer func() {
		if recover() == nil {
			t.Error("Go after Shutdown did not panic")
		}
	}()
	rt.Go("late", nil, Low, func(p *Proc) {})
}

// schedulePin runs a fixed small network that crosses every scheduling
// path — two priorities, a contended Consume queue, an Alt with an
// After guard, a self-re-arming passive Timer, a Signal, a process
// started from inside another, and a bounded run followed by an
// unbounded one — and returns its full Trace log followed by the
// switch count.
func schedulePin(t *testing.T) string {
	rt := NewRuntime()
	defer rt.Shutdown()
	var log []string
	rt.Trace = func(s string) { log = append(log, s) }

	cpu := NewNode(rt, "cpu")
	data := NewChan[int](rt, "data")
	tick := NewSignal(rt, "tick")

	fired := 0
	var tm *Timer
	tm = NewTimer(rt, func(s Sched) {
		fired++
		s.Raise(tick)
		if fired < 4 {
			s.Schedule(tm, s.Now().Add(700*time.Microsecond))
		}
	})

	rt.Go("hi", cpu, High, func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Consume(300 * time.Microsecond)
			data.Send(p, i)
			p.Sleep(time.Millisecond)
		}
	})
	for _, name := range []string{"lo.a", "lo.b"} {
		rt.Go(name, cpu, Low, func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Consume(500 * time.Microsecond)
				data.Send(p, 10+i)
				p.Yield()
			}
		})
	}
	rt.Go("sink", nil, High, func(p *Proc) {
		var v int
		for got := 0; got < 8; {
			if p.Alt(Recv(data, &v), After(p.Now().Add(400*time.Microsecond))) == 0 {
				got++
			}
		}
	})
	rt.Go("waiter", nil, Low, func(p *Proc) {
		tm.Schedule(p.Now().Add(250 * time.Microsecond))
		for i := 0; i < 4; i++ {
			tick.Wait(p)
			if i == 1 {
				rt.Go("child", cpu, High, func(p *Proc) {
					p.Consume(100 * time.Microsecond)
					data.Send(p, 99)
				})
			}
		}
	})

	if err := rt.RunUntil(Time(2 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	log = append(log, "-- limit --")
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return strings.Join(log, "\n") + fmt.Sprintf("\nswitches %d\n", rt.Switches())
}

// TestSchedulePin holds the scheduler to the schedule recorded from
// the channel-and-goroutine runtime this one replaced (PR 11's commit):
// which process runs when, and how many switches that takes, are part
// of the simulation's results and must not move with the mechanism.
func TestSchedulePin(t *testing.T) {
	want, err := os.ReadFile("testdata/schedule_pin.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := schedulePin(t); got != string(want) {
		t.Errorf("schedule differs from testdata/schedule_pin.golden; got:\n%s", got)
	}
}

func TestRunQueueRingIsFIFOAcrossWrapAndGrowth(t *testing.T) {
	procs := make([]*Proc, 100)
	for i := range procs {
		procs[i] = &Proc{seq: uint64(i)}
	}
	var q runq
	next, want := 0, 0
	push := func(k int) {
		for ; k > 0; k-- {
			q.push(procs[next])
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			if p := q.pop(); p != procs[want] {
				t.Fatalf("popped proc %d, want %d", p.seq, want)
			}
			want++
		}
	}
	push(12)
	pop(10) // head near the end of the initial 16-slot ring
	push(10)
	if len(q.buf) != 16 || q.head+q.n <= len(q.buf) {
		t.Fatalf("ring of %d with head %d, n %d: not wrapped", len(q.buf), q.head, q.n)
	}
	pop(5)
	push(40) // grows twice while wrapped
	if len(q.buf) != 64 {
		t.Fatalf("ring grew to %d, want 64", len(q.buf))
	}
	pop(q.n)
	push(33)
	pop(33)
	if q.n != 0 {
		t.Fatalf("%d left in an emptied ring", q.n)
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d of an emptied ring still holds proc %d", i, p.seq)
		}
	}
}

func TestHighQueueDrainsBeforeLow(t *testing.T) {
	rt := NewRuntime()
	var order []string
	for i := 0; i < 40; i++ { // enough of each to grow both rings
		pri, tag := Low, "L"
		if i%2 == 1 {
			pri, tag = High, "H"
		}
		name := fmt.Sprintf("%s%02d", tag, i)
		rt.Go(name, nil, pri, func(p *Proc) { order = append(order, name) })
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), order...)
	sort.Strings(want) // "H.." before "L..", creation order within each
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Fatalf("run order %v", order)
	}
}

// parkInPolledWaits starts one process parked in a grid sleep that
// nothing will end and two in sliced grants on one node — "slicer" with
// its first slice granted, "queued" waiting behind it — and runs them to
// t+500µs.
func parkInPolledWaits(t *testing.T, rt *Runtime) {
	t.Helper()
	never := NewChan[int](rt, "never")
	cpu := NewNode(rt, "cpu")
	rt.Go("poller", nil, High, func(p *Proc) {
		p.SleepGrid(0, time.Millisecond, never.Pending)
	})
	for _, name := range []string{"slicer", "queued"} {
		rt.Go(name, cpu, Low, func(p *Proc) {
			for {
				p.ConsumeSliced(5*time.Millisecond, 2*time.Millisecond)
			}
		})
	}
	if err := rt.RunUntil(Time(500 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
}

func TestPolledWaitsAreNamedInTheProcessDump(t *testing.T) {
	// The dump is what a DeadlockError carries. (No run can end in one
	// with a polled wait in it: a grid sleep always has its timer
	// pending, a sliced grant its own or the holder's.)
	rt := NewRuntime()
	defer rt.Shutdown()
	parkInPolledWaits(t, rt)
	rt.mu.Lock()
	got := strings.Join(rt.procDump(), "\n")
	rt.mu.Unlock()
	want := "poller [high] sleep until t+1ms\n" +
		"queued [low] cpu cpu for 2ms\n" +
		"slicer [low] cpu cpu for 2ms"
	if got != want {
		t.Errorf("process dump:\n%s\nwant:\n%s", got, want)
	}
}

func TestShutdownUnwindsPolledWaits(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := NewRuntime()
	parkInPolledWaits(t, rt)
	if n := runtime.NumGoroutine(); n <= before {
		t.Fatalf("%d goroutines with live processes, %d before: the test cannot see a leak", n, before)
	}
	rt.Shutdown()
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Shutdown, %d before NewRuntime", n, before)
	}
	if rt.NumProcs() != 0 {
		t.Errorf("%d procs alive after Shutdown", rt.NumProcs())
	}
}

func TestPanickingPredicateSurfacesFromRunNamed(t *testing.T) {
	for name, firstPoll := range map[string]Time{
		// Polled at once, on the caller's own stack.
		"from the call": 0,
		// Polled at the third turn, on whichever stack the scheduler
		// is running on: the bystander's, which parks most often.
		"from a scheduler turn": Time(time.Millisecond),
	} {
		t.Run(name, func(t *testing.T) {
			rt := NewRuntime()
			defer rt.Shutdown()
			rt.Go("bystander", nil, Low, func(p *Proc) {
				for {
					p.Sleep(100 * time.Microsecond)
				}
			})
			polls := 0
			rt.Go("poller", nil, Low, func(p *Proc) {
				p.SleepGrid(firstPoll, time.Millisecond, func(Sched) bool {
					if polls++; polls == 3 || firstPoll == 0 {
						panic("boom")
					}
					return false
				})
			})
			var got any
			func() {
				defer func() { got = recover() }()
				rt.Run()
			}()
			if msg, _ := got.(string); !strings.Contains(msg, `process "poller" panicked`) || !strings.Contains(msg, "boom") {
				t.Fatalf("Run panicked with %v, want the polling process named", got)
			}
			// The lock came back with the panic.
			if firstPoll != 0 && rt.Now() != Time(3*time.Millisecond) {
				t.Errorf("panicked at %v, want the third poll at t+3ms", rt.Now())
			}
		})
	}
}

func TestIdleGridTurnsResumeNothing(t *testing.T) {
	// Twenty idle turns on a 1 ms grid beside a process that keeps the
	// dispatch loop busy: the loop form is switched into at every one,
	// the polled wait at none, and both take the same turns.
	for _, polled := range []bool{false, true} {
		rt := NewRuntime()
		never := NewChan[int](rt, "never")
		turns := 0
		rt.Trace = func(s string) {
			if strings.HasSuffix(s, "] run idle") {
				turns++
			}
		}
		idle := rt.Go("idle", nil, High, func(p *Proc) {
			if polled {
				p.SleepGrid(Time(time.Millisecond), time.Millisecond, never.Pending)
				return
			}
			for n := 1; p.Alt(Recv(never, new(int)), Skip()) == 1; n++ {
				p.SleepUntil(Time(n) * Time(time.Millisecond))
			}
		})
		rt.Go("busy", nil, Low, func(p *Proc) {
			for {
				p.Sleep(300 * time.Microsecond)
			}
		})
		if err := rt.RunUntil(Time(500 * time.Microsecond)); err != nil {
			t.Fatal(err)
		}
		turns = 0
		resumes, resume := 0, idle.resume
		idle.resume = func() (struct{}, bool) {
			resumes++
			return resume()
		}
		before := rt.Switches()
		if err := rt.RunUntil(Time(20*time.Millisecond + 500*time.Microsecond)); err != nil {
			t.Fatal(err)
		}
		want := 20
		if polled {
			want = 0
		}
		if turns != 20 || resumes != want {
			t.Errorf("polled=%v: %d turns traced, %d coroutine resumes; want 20 and %d", polled, turns, resumes, want)
		}
		if sw := rt.Switches() - before; sw != 20+67 { // busy wakes 67 times in those 20 ms
			t.Errorf("polled=%v: %d switches, want 87", polled, sw)
		}
		idle.resume = resume
		rt.Shutdown()
	}
}

func TestPolledWaitsAllocateNothing(t *testing.T) {
	rt := NewRuntime()
	defer rt.Shutdown()
	cpu := NewNode(rt, "cpu")
	// Calls and turns of both: every fourth poll ends a grid sleep, and
	// each 2 ms a 900 µs grant is taken in three slices against a High
	// competitor.
	polls := 0
	rt.Go("grid", cpu, High, func(p *Proc) {
		everyFourth := func(Sched) bool { polls++; return polls%4 == 0 }
		for t := Time(0); ; {
			t = p.SleepGrid(t, 100*time.Microsecond, everyFourth).Add(100 * time.Microsecond)
			p.Consume(50 * time.Microsecond)
		}
	})
	rt.Go("slicer", cpu, Low, func(p *Proc) {
		for n := 0; ; n++ {
			p.SleepUntil(Time(n) * Time(2*time.Millisecond))
			p.ConsumeSliced(900*time.Microsecond, 400*time.Microsecond)
		}
	})
	limit := Time(0)
	run := func() {
		limit = limit.Add(2 * time.Millisecond)
		if err := rt.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		run() // rings, free lists and the node's queue reach their size
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("2 ms of polled waits allocate %.1f objects", allocs)
	}
	if polls < 2000 {
		t.Errorf("only %d polls", polls)
	}
}

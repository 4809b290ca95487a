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

// inTurns returns a step function for GoStep that runs turns in order:
// each is the code between two waits and may end in one blocking call.
func inTurns(turns ...func(p *Proc)) func(*Proc) {
	next := 0
	return func(p *Proc) {
		for next < len(turns) {
			next++
			if turns[next-1](p); p.Parked() {
				return
			}
		}
	}
}

// recovered runs f and returns what it panicked with, as a string.
func recovered(f func()) string {
	var got any
	func() {
		defer func() { got = recover() }()
		f()
	}()
	msg, _ := got.(string)
	return msg
}

func TestProcessPanicSurfacesFromRunUntil(t *testing.T) {
	faults := map[string]func(rt *Runtime, p *Proc){
		"in user code": func(rt *Runtime, p *Proc) { panic("boom") },
		"inside a primitive": func(rt *Runtime, p *Proc) {
			tm := NewTimer(rt, func(Sched) {})
			tm.Schedule(p.Now().Add(time.Second))
			tm.Schedule(p.Now().Add(time.Second))
		},
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			for _, form := range []string{"coroutine", "stackless"} {
				t.Run(form, func(t *testing.T) {
					rt := NewRuntime()
					defer rt.Shutdown()
					ch := NewChan[int](rt, "never")
					rt.Go("bystander", nil, Low, func(p *Proc) { ch.Recv(p) })
					sleep := func(p *Proc) { p.Sleep(time.Millisecond) }
					if form == "stackless" {
						rt.GoStep("faulty", nil, Low, StepFunc(inTurns(sleep, func(p *Proc) { fault(rt, p) })))
					} else {
						rt.Go("faulty", nil, Low, func(p *Proc) {
							sleep(p)
							fault(rt, p)
						})
					}
					if msg := recovered(func() { rt.Run() }); !strings.HasPrefix(msg, `occam: process "faulty" panicked: `) {
						t.Fatalf("Run panicked with %q, want the faulty process named", msg)
					}
					// The runtime is left consistent: the faulty process
					// gone, the clock and the census reading right, and a
					// further run finds the bystander still blocked.
					if rt.NumProcs() != 1 || rt.Now() != Time(time.Millisecond) {
						t.Fatalf("after the panic: %d procs at %v, want 1 at 1ms", rt.NumProcs(), rt.Now())
					}
					if err := rt.RunUntil(Time(2 * time.Millisecond)); err != nil {
						t.Fatal(err)
					}
					if rt.NumProcs() != 1 || rt.Now() != Time(2*time.Millisecond) {
						t.Fatalf("after a further run: %d procs at %v, want 1 at 2ms", rt.NumProcs(), rt.Now())
					}
				})
			}
		})
	}
}

func TestStacklessProcessMayWaitOncePerTurn(t *testing.T) {
	for name, c := range map[string]struct {
		second func(rt *Runtime, p *Proc)
		want   string
	}{
		"a second wait after one has parked it": {
			func(rt *Runtime, p *Proc) { p.Consume(time.Millisecond) },
			`occam: process "greedy" panicked: occam: stackless process "greedy", already parked, reached another wait in the same turn`,
		},
		// The value-returning forms have no way to deliver to a process
		// that will not be on their stack when the value comes. (Pool.Get
		// has its twin of this in the allocator's tests.)
		"Chan.Recv with no sender waiting": {
			func(rt *Runtime, p *Proc) { NewChan[int](rt, "empty").Recv(p) },
			`occam: process "greedy" panicked: occam: Chan.Recv on empty would park stackless process "greedy", which it could not return to`,
		},
		"Link.Send": {
			func(rt *Runtime, p *Proc) { NewLink[int](rt, "wire", 1_000_000).Send(p, 1, 100) },
			`occam: process "greedy" panicked: occam: Link.Send on wire would park stackless process "greedy", which it could not return to`,
		},
	} {
		t.Run(name, func(t *testing.T) {
			rt := NewRuntime()
			defer rt.Shutdown()
			first := func(p *Proc) {}
			if strings.HasPrefix(name, "a second wait") {
				first = func(p *Proc) { p.Sleep(time.Millisecond) }
			}
			rt.GoStep("greedy", nil, Low, StepFunc(func(p *Proc) {
				first(p)
				c.second(rt, p)
			}))
			if msg := recovered(func() { rt.Run() }); msg != c.want {
				t.Errorf("Run panicked with %q\nwant %q", msg, c.want)
			}
		})
	}
	// A value-returning form that need not wait is an ordinary call.
	rt := NewRuntime()
	defer rt.Shutdown()
	ch := NewChan[int](rt, "ch")
	got := 0
	rt.Go("sender", nil, High, func(p *Proc) { ch.Send(p, 7) })
	rt.GoStep("taker", nil, Low, StepFunc(func(p *Proc) { got = ch.Recv(p) }))
	if err := rt.Run(); err != nil || got != 7 {
		t.Errorf("Recv from a waiting sender: got %d, %v", got, err)
	}
}

func TestStepReturningUnparkedHasExited(t *testing.T) {
	// "early" exits at its second turn having readied "next", which is
	// High and so goes ahead of "late", runnable since their instant
	// came: the exit line, the drop in NumProcs and the hand-over to
	// "next" are what a coroutine's return would have given.
	for _, stackless := range []bool{false, true} {
		rt := NewRuntime()
		var log []string
		rt.Trace = func(s string) { log = append(log, s) }
		sig := NewSignal(rt, "sig")
		procs := -1
		turns := []func(p *Proc){
			func(p *Proc) { p.Sleep(time.Millisecond) },
			func(p *Proc) { sig.Raise() },
		}
		if stackless {
			rt.GoStep("early", nil, Low, StepFunc(inTurns(turns...)))
		} else {
			rt.Go("early", nil, Low, func(p *Proc) {
				for _, turn := range turns {
					turn(p)
				}
			})
		}
		rt.Go("next", nil, High, func(p *Proc) {
			sig.Wait(p)
			procs = rt.NumProcs()
		})
		rt.Go("late", nil, Low, func(p *Proc) { p.Sleep(time.Millisecond) })
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		want := "[t+1ms] run early\n[t+1ms] exit early\n[t+1ms] run next\n[t+1ms] exit next\n[t+1ms] run late\n[t+1ms] exit late"
		if got := strings.Join(log, "\n"); !strings.HasSuffix(got, want) || procs != 2 {
			t.Errorf("stackless=%v: %d procs when next ran, want 2; trace:\n%s\nwant it to end:\n%s", stackless, procs, got, want)
		}
	}
}

func TestStepWhoseOwnTimerIsNextIsCalledAgain(t *testing.T) {
	// A lone paced loop: every park finds the process's own timer the
	// next event. The coroutine never leaves its stack for it (one resume
	// in all), the step function is simply called again, and both leave
	// the same trace.
	var traces [2][]string
	for i, stackless := range []bool{false, true} {
		rt := NewRuntime()
		rt.Trace = func(s string) { traces[i] = append(traces[i], s) }
		laps := 0
		lap := func(p *Proc) {
			laps++
			p.Sleep(time.Millisecond)
		}
		if stackless {
			rt.GoStep("pacer", nil, Low, StepFunc(func(p *Proc) {
				if laps < 100 {
					lap(p)
				}
			}))
		} else {
			rt.Go("pacer", nil, Low, func(p *Proc) {
				for laps < 100 {
					lap(p)
				}
			})
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		want := uint64(1)
		if stackless {
			want = 0
		}
		if laps != 100 || rt.Switches() != 101 || rt.Resumes() != want || rt.Now() != Time(100*time.Millisecond) {
			t.Errorf("stackless=%v: %d laps, %d switches, %d resumes, ended at %v", stackless, laps, rt.Switches(), rt.Resumes(), rt.Now())
		}
	}
	if a, b := strings.Join(traces[0], "\n"), strings.Join(traces[1], "\n"); a != b {
		t.Errorf("the coroutine traced:\n%s\nthe step function:\n%s", a, b)
	}
}

func TestDeadlockListsStacklessProcessesLikeCoroutines(t *testing.T) {
	var dumps [2]string
	for i, stackless := range []bool{false, true} {
		rt := NewRuntime()
		cpu := NewNode("cpu")
		never := NewChan[int](rt, "never")
		full := NewChan[int](rt, "full")
		var v int
		guards := []Guard{Recv(never, &v), Recv(never, &v)}
		for name, wait := range map[string]func(p *Proc){
			"recv": func(p *Proc) { never.RecvInto(p, &v) },
			"send": func(p *Proc) { full.Send(p, 1) },
			"alt":  func(p *Proc) { p.Alt(guards...) },
			"sig":  func(p *Proc) { NewSignal(rt, "sig").Wait(p) },
		} {
			if stackless {
				rt.GoStep(name, cpu, High, StepFunc(wait))
			} else {
				rt.Go(name, cpu, High, wait)
			}
		}
		err := rt.Run()
		if err == nil {
			t.Fatal("Run returned nil with every process blocked for good")
		}
		dumps[i] = err.Error()
		rt.Shutdown()
	}
	want := "occam: deadlock at t+0s with 4 blocked processes:\n" +
		"  alt [high] alt over 2 guards\n  recv [high] recv never\n  send [high] send full\n  sig [high] recv sig"
	if dumps[0] != want || dumps[1] != want {
		t.Errorf("coroutines:\n%s\nstackless:\n%s\nwant:\n%s", dumps[0], dumps[1], want)
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

func TestShutdownWithStacklessProcesses(t *testing.T) {
	// Parked, runnable and never run: none of them has a goroutine, so
	// there is nothing to release, before Shutdown or after.
	before := runtime.NumGoroutine()
	rt := NewRuntime()
	ch := NewChan[int](rt, "never")
	var v int
	for i := 0; i < 4; i++ {
		rt.GoStep("parked", nil, Low, StepFunc(func(p *Proc) { ch.RecvInto(p, &v) }))
	}
	rt.GoStep("sleeper", nil, High, StepFunc(func(p *Proc) { p.Sleep(time.Millisecond) }))
	sig := NewSignal(rt, "sig")
	rt.GoStep("woken", nil, Low, StepFunc(inTurns(sig.Wait, func(p *Proc) { t.Error("Shutdown ran a runnable process") })))
	if err := rt.RunUntil(Time(3 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	sig.Raise()
	for i := 0; i < 3; i++ {
		rt.GoStep("unstarted", nil, Low, StepFunc(func(p *Proc) { t.Error("Shutdown ran a process that had never been scheduled") }))
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines with 9 stackless processes live, %d before NewRuntime", n, before)
	}
	rt.Shutdown()
	rt.Shutdown() // idempotent
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Shutdown, %d before NewRuntime", n, before)
	}
	if rt.NumProcs() != 0 {
		t.Errorf("%d procs alive after Shutdown", rt.NumProcs())
	}
	if err := rt.RunUntil(Time(time.Second)); err == nil {
		t.Error("RunUntil after Shutdown returned nil")
	}
	if msg := recovered(func() { rt.GoStep("late", nil, Low, StepFunc(func(p *Proc) {})) }); msg == "" {
		t.Error("GoStep after Shutdown did not panic")
	}
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

	cpu := NewNode("cpu")
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

// TestSchedulePin holds the scheduler to a recorded schedule: which
// process runs when, and how many switches that takes, are part of the
// simulation's results and must not move with the mechanism. It was
// recorded from the channel-and-goroutine runtime this one replaced,
// and again when a High request came to preempt a running Low grant
// (child and hi suspend lo.b's grant at 950 µs and 1.3 ms).
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
		procs[i] = &Proc{idx: int32(i)}
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
				t.Fatalf("popped proc %d, want %d", p.idx, want)
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
			t.Fatalf("slot %d of an emptied ring still holds proc %d", i, p.idx)
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

func TestIdleGridTurnsResumeNothing(t *testing.T) {
	// Twenty idle turns on a 1 ms grid, each a poll that finds no command,
	// beside a process that keeps the dispatch loop busy: the coroutine is
	// switched into at every one, the step function at none, and both take
	// the same turns.
	for _, stackless := range []bool{false, true} {
		rt := NewRuntime()
		never := NewChan[int](rt, "never")
		turns := 0
		rt.Trace = func(s string) {
			if strings.HasSuffix(s, "] run idle") {
				turns++
			}
		}
		guards, n := []Guard{Recv(never, new(int)), Skip()}, 1
		poll := func(p *Proc) {
			for p.Alt(guards...) == 1 {
				p.SleepUntil(Time(n) * Time(time.Millisecond))
				if n++; p.Parked() {
					return
				}
			}
		}
		if stackless {
			rt.GoStep("idle", nil, High, StepFunc(poll))
		} else {
			rt.Go("idle", nil, High, poll)
		}
		rt.GoStep("busy", nil, Low, StepFunc(func(p *Proc) { p.Sleep(300 * time.Microsecond) }))
		if err := rt.RunUntil(Time(500 * time.Microsecond)); err != nil {
			t.Fatal(err)
		}
		turns = 0
		resumes, switches := rt.Resumes(), rt.Switches()
		if err := rt.RunUntil(Time(20*time.Millisecond + 500*time.Microsecond)); err != nil {
			t.Fatal(err)
		}
		want := 20
		if stackless {
			want = 0
		}
		if got := int(rt.Resumes() - resumes); turns != 20 || got != want {
			t.Errorf("stackless=%v: %d turns traced, %d coroutine resumes; want 20 and %d", stackless, turns, got, want)
		}
		if sw := rt.Switches() - switches; sw != 20+67 { // busy wakes 67 times in those 20 ms
			t.Errorf("stackless=%v: %d switches, want 87", stackless, sw)
		}
		rt.Shutdown()
	}
}

package occam

import (
	"errors"
	"testing"
	"time"
)

// Yield gives up the CPU, letting every other runnable process of the
// same or higher priority run before this one continues. No board
// yields; the tests use it to order processes within an instant.
func (p *Proc) Yield() {
	p.rt.ready(p)
	p.rt.park(p, stRunnable, nil)
}

func TestRunEmpty(t *testing.T) {
	rt := NewRuntime()
	if err := rt.Run(); err != nil {
		t.Fatalf("Run() on empty runtime: %v", err)
	}
	if len(rt.procs) != 0 {
		t.Fatal("empty runtime has processes")
	}
}

func TestSingleProcRuns(t *testing.T) {
	rt := NewRuntime()
	ran := false
	rt.Go("p", nil, Low, func(p *Proc) { ran = true })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("process body did not run")
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	rt := NewRuntime()
	var woke Time
	rt.Go("sleeper", nil, Low, func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	start := time.Now()
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("virtual sleep took %v of wall time", wall)
	}
}

func TestSleepUntilPastReturnsImmediately(t *testing.T) {
	rt := NewRuntime()
	rt.Go("p", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond)
		before := p.Now()
		p.SleepUntil(0)
		if p.Now() != before {
			t.Errorf("SleepUntil(past) advanced time from %v to %v", before, p.Now())
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimersFireInOrder(t *testing.T) {
	rt := NewRuntime()
	var order []int
	for i, d := range []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond} {
		i, d := i, d
		rt.Go("p", nil, Low, func(p *Proc) {
			p.Sleep(d)
			order = append(order, i)
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	}
}

func TestSameInstantTimersFIFO(t *testing.T) {
	rt := NewRuntime()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		rt.Go("p", nil, Low, func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, i)
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-instant wake order %v, want ascending", order)
		}
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	rt := NewRuntime()
	var wokeAt Time = -1
	rt.Go("p", nil, Low, func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		wokeAt = p.Now()
	})
	if err := rt.RunUntil(Time(4 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if wokeAt != -1 {
		t.Fatalf("process woke before limit, at %v", wokeAt)
	}
	if rt.Now() != Time(4*time.Millisecond) {
		t.Fatalf("clock at %v after RunUntil(4ms)", rt.Now())
	}
	if err := rt.RunUntil(Time(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if wokeAt != Time(10*time.Millisecond) {
		t.Fatalf("woke at %v, want 10ms", wokeAt)
	}
}

func TestRunUntilAPastLimitLeavesTheClockAndTheTimersAlone(t *testing.T) {
	rt := NewRuntime()
	defer rt.Shutdown()
	ms := Time(time.Millisecond)
	var woke []Time
	rt.Go("p", nil, Low, func(p *Proc) {
		for _, at := range []Time{10 * ms, 12 * ms} {
			p.SleepUntil(at)
			woke = append(woke, p.Now())
		}
	})
	for _, limit := range []Time{10 * ms, 5 * ms, 0} {
		if err := rt.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
		if rt.Now() != 10*ms || len(woke) != 1 || checkTimerQueue(t, &rt.timers) != 1 {
			t.Fatalf("after RunUntil(%v): clock at %v, woken at %v", limit, rt.Now(), woke)
		}
	}
	if err := rt.Run(); err != nil || rt.Now() != 12*ms || len(woke) != 2 {
		t.Fatalf("ran on to %v, woken at %v: %v", rt.Now(), woke, err)
	}
}

func TestRunForIsRelative(t *testing.T) {
	rt := NewRuntime()
	rt.Go("ticker", nil, Low, func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	if err := rt.RunFor(3 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(3 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rt.Now() != Time(6*time.Millisecond) {
		t.Fatalf("clock at %v, want 6ms", rt.Now())
	}
	rt.Shutdown()
}

func TestDeadlockDetected(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "never")
	rt.Go("stuck", nil, Low, func(p *Proc) {
		ch.Recv(p)
	})
	err := rt.Run()
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %T, want *DeadlockError", err)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatal("DeadlockError does not unwrap to ErrDeadlock")
	}
	if len(de.Procs) != 1 {
		t.Fatalf("deadlock reports %d procs, want 1", len(de.Procs))
	}
	rt.Shutdown()
}

func TestShutdownUnwindsBlockedProcs(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "never")
	for i := 0; i < 10; i++ {
		rt.Go("stuck", nil, Low, func(p *Proc) { ch.Recv(p) })
	}
	if err := rt.RunUntil(Time(time.Millisecond)); err != nil {
		// Blocked-on-channel-only is a deadlock; either outcome is
		// fine here, we only care that Shutdown reclaims goroutines.
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatal(err)
		}
	}
	rt.Shutdown() // must not hang
	if rt.NumProcs() != 0 {
		t.Fatalf("%d procs alive after Shutdown", rt.NumProcs())
	}
}

func TestHighPriorityRunsFirst(t *testing.T) {
	rt := NewRuntime()
	var order []string
	// Both become runnable at the same instant; High must run first
	// even though it was queued second.
	rt.Go("low", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "low")
	})
	rt.Go("high", nil, High, func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "high")
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "high" {
		t.Fatalf("order %v, want high first", order)
	}
}

func TestGoFromInsideProc(t *testing.T) {
	rt := NewRuntime()
	ran := false
	rt.Go("parent", nil, Low, func(p *Proc) {
		rt.Go("child", nil, Low, func(p *Proc) { ran = true })
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("dynamically created process did not run")
	}
}

func TestYieldRoundRobins(t *testing.T) {
	rt := NewRuntime()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		rt.Go("p", nil, Low, func(p *Proc) {
			for round := 0; round < 2; round++ {
				order = append(order, i)
				p.Yield()
			}
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestContextSwitchCounter(t *testing.T) {
	rt := NewRuntime()
	rt.Go("p", nil, Low, func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Yield()
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Switches() < 10 {
		t.Fatalf("Switches() = %d, want >= 10", rt.Switches())
	}
}

func TestDeterministicReplay(t *testing.T) {
	// The same program must produce the identical event order twice.
	run := func() []string {
		rt := NewRuntime()
		var log []string
		ch := NewChan[int](rt, "c")
		for i := 0; i < 4; i++ {
			i := i
			rt.Go("sender", nil, Low, func(p *Proc) {
				p.Sleep(time.Duration(i%2) * time.Millisecond)
				ch.Send(p, i)
			})
		}
		rt.Go("recv", nil, Low, func(p *Proc) {
			for i := 0; i < 4; i++ {
				v := ch.Recv(p)
				log = append(log, string(rune('a'+v)))
			}
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	if Time(2*time.Millisecond).Millis() != 2.0 {
		t.Error("Millis() wrong")
	}
	if Time(time.Second).Seconds() != 1.0 {
		t.Error("Seconds() wrong")
	}
	if Time(0).Add(time.Millisecond) != Time(time.Millisecond) {
		t.Error("Add wrong")
	}
	if Time(time.Second).Sub(Time(time.Millisecond)) != 999*time.Millisecond {
		t.Error("Sub wrong")
	}
	if Forever.String() != "forever" {
		t.Error("Forever.String() wrong")
	}
	if Time(0).String() == "" {
		t.Error("empty String()")
	}
}

// A runtime has no lock: it is used by one goroutine at a time, and a
// hand-over is an ordinary happens-before. Built on one goroutine, run
// on a second, read on a third, with a channel at each hand-over, is
// race-free (go test -race), and every reader sees what the run left.
func TestRuntimeHandedBetweenGoroutines(t *testing.T) {
	built := make(chan *Runtime)
	var cpu *Node
	go func() {
		rt := NewRuntime()
		cpu = NewNode("cpu")
		ch := NewChan[int](rt, "ch")
		rt.Go("worker", cpu, Low, func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Consume(100 * time.Microsecond)
				ch.Send(p, i)
			}
		})
		var v int
		rt.GoStep("taker", nil, High, StepFunc(func(p *Proc) {
			for v < 9 {
				if ch.RecvInto(p, &v); p.Parked() {
					return
				}
			}
		}))
		built <- rt
	}()

	ran := make(chan *Runtime)
	go func() {
		rt := <-built
		if err := rt.RunUntil(Time(500 * time.Microsecond)); err != nil {
			t.Error(err)
		}
		if err := rt.Run(); err != nil {
			t.Error(err)
		}
		ran <- rt
	}()

	type reading struct {
		now               Time
		switches, resumes uint64
		procs             int
		busy              time.Duration
	}
	read := make(chan reading)
	go func() {
		rt := <-ran
		read <- reading{rt.Now(), rt.Switches(), rt.Resumes(), rt.NumProcs(), cpu.busyFor}
		rt.Shutdown()
	}()
	got := <-read
	if want := (reading{Time(time.Millisecond), 22, 10, 0, time.Millisecond}); got != want {
		t.Errorf("read %+v after the run, want %+v", got, want)
	}
}

func TestRunUntilReentryAndShutdownInsideItPanic(t *testing.T) {
	for _, form := range []string{"coroutine", "stackless"} {
		for name, c := range map[string]struct {
			misuse func(rt *Runtime)
			want   string
		}{
			"RunUntil": {func(rt *Runtime) { rt.RunUntil(Forever) }, "occam: RunUntil re-entered"},
			"Shutdown": {func(rt *Runtime) { rt.Shutdown() }, "occam: Shutdown during RunUntil"},
		} {
			t.Run(name+" from a "+form, func(t *testing.T) {
				rt := NewRuntime()
				defer rt.Shutdown()
				body := func(p *Proc) { c.misuse(rt) }
				if form == "stackless" {
					rt.GoStep("meddler", nil, Low, StepFunc(body))
				} else {
					rt.Go("meddler", nil, Low, body)
				}
				if msg, want := recovered(func() { rt.Run() }), `occam: process "meddler" panicked: `+c.want; msg != want {
					t.Errorf("Run panicked with %q, want %q", msg, want)
				}
			})
		}
	}
}

package occam

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// A polled wait is the loop it replaced: the same network is run twice,
// once with SleepGrid and ConsumeSliced and once with the hand-written
// loops they stand for, under generated contention, and everything
// observable — each process's steps with their virtual times, the full
// scheduler trace, Switches and the node's busy time — must be equal.

// polledUnit is the granularity of generated instants and durations;
// the grid's period is four units, so events land on and off it.
const (
	polledUnit   = 50 * time.Microsecond
	polledPeriod = 4 * polledUnit
)

type polledEvent struct {
	at  Time
	arg int
}

// polledResult is everything one run of the network shows.
type polledResult struct {
	steps, trace []string
	switches     uint64
	busy         time.Duration
}

// polledNet builds the network data describes and runs it for 6 ms in
// two bounded runs.
//
//	data[0]  slice length, 1–6 units
//	data[1]  bit 0: the grid process is High; bit 1: it runs on the node;
//	         bits 2–3: units it consumes after taking commands (so it can
//	         come back late to its grid); bit 4: the slicer has no node
//	data[2]  grid origin, 0–7 units
//	then three bytes an event — who (sender a, sender b, the High
//	competitor, the Low one, the slicer), instant, argument: a command
//	to send, a request of 1–6 units on the node, or a job of 1–40 units;
//	bit 7 of the first byte moves the instant half a unit off every grid.
func polledNet(data []byte, polled bool) polledResult {
	for len(data) < 3 {
		data = append(data, 0)
	}
	var (
		slice    = time.Duration(1+data[0]%6) * polledUnit
		gridPri  = Priority(data[1] & 1)
		gridNode = data[1]&2 != 0
		gridWork = time.Duration(data[1]>>2&3) * polledUnit
		bareJob  = data[1]&16 != 0
		origin   = Time(time.Duration(data[2]%8) * polledUnit)
		events   [5][]polledEvent // sender a, sender b, high, low, slicer
	)
	evs := data[3:]
	if len(evs) > 3*40 {
		evs = evs[:3*40]
	}
	for ; len(evs) >= 3; evs = evs[3:] {
		at := Time(time.Duration(evs[1]%110) * polledUnit)
		if evs[0]&0x80 != 0 {
			at += Time(polledUnit / 2)
		}
		who := evs[0] & 0x7f % 5
		events[who] = append(events[who], polledEvent{at, int(evs[2])})
	}

	rt := NewRuntime()
	defer rt.Shutdown()
	var res polledResult
	rt.Trace = func(s string) { res.trace = append(res.trace, s) }
	step := func(p *Proc, format string, args ...any) {
		res.steps = append(res.steps, fmt.Sprintf("[%v] %s ", p.Now(), p.Name())+fmt.Sprintf(format, args...))
	}
	cpu := NewNode(rt, "cpu")
	cmds := NewChan[int](rt, "cmds")
	on := func(yes bool) *Node {
		if yes {
			return cpu
		}
		return nil
	}

	// The grid process counts its ticks, which is a write of its own
	// state at every one of them: the predicate makes it for the turns
	// the scheduler takes.
	ticks := 0
	pending := func(s Sched) bool {
		ticks++
		return cmds.Pending(s)
	}
	rt.Go("grid", on(gridNode), gridPri, func(p *Proc) {
		var v int
		guards := []Guard{Recv(cmds, &v), Skip()}
		for n := int64(0); ; n++ {
			tick := origin.Add(time.Duration(n) * polledPeriod)
			if polled {
				n = int64(p.SleepGrid(tick, polledPeriod, pending).Sub(origin) / polledPeriod)
			} else {
				p.SleepUntil(tick)
				ticks++
			}
			took := false
			for p.Alt(guards...) == 0 {
				step(p, "tick %d, the %dth, takes %d", n, ticks, v)
				took = true
			}
			if took {
				p.Consume(gridWork)
			}
		}
	})
	rt.Go("slicer", on(!bareJob), Low, func(p *Proc) {
		for i, e := range events[4] {
			p.SleepUntil(e.at)
			d := time.Duration(1+e.arg%40) * polledUnit
			if polled {
				p.ConsumeSliced(d, slice)
			} else {
				for ; d > 0; d -= slice {
					p.Consume(min(d, slice))
				}
			}
			step(p, "job %d done", i)
		}
	})
	for i, name := range []string{"send.a", "send.b"} {
		rt.Go(name, nil, Low, func(p *Proc) {
			for _, e := range events[i] {
				p.SleepUntil(e.at)
				cmds.Send(p, e.arg)
				step(p, "sent %d", e.arg)
			}
		})
	}
	for i, name := range []string{"high", "low"} {
		rt.Go(name, cpu, Priority(1-i), func(p *Proc) {
			for k, e := range events[2+i] {
				p.SleepUntil(e.at)
				p.Consume(time.Duration(1+e.arg%6) * polledUnit)
				step(p, "request %d served", k)
			}
		})
	}

	for _, limit := range []time.Duration{3 * time.Millisecond, 6 * time.Millisecond} {
		if err := rt.RunUntil(Time(limit)); err != nil {
			res.steps = append(res.steps, err.Error())
		}
		res.trace = append(res.trace, "-- limit --")
		res.steps = append(res.steps, fmt.Sprintf("%d ticks", ticks))
	}
	res.switches, res.busy = rt.Switches(), cpu.BusyTime()
	return res
}

// checkPolled runs data's network both ways and reports any difference.
func checkPolled(t *testing.T, data []byte) {
	t.Helper()
	loop, wait := polledNet(data, false), polledNet(data, true)
	for _, c := range []struct {
		what      string
		loop, got []string
	}{{"steps", loop.steps, wait.steps}, {"trace", loop.trace, wait.trace}} {
		for i := 0; i < len(c.loop) || i < len(c.got); i++ {
			var l, g string
			if i < len(c.loop) {
				l = c.loop[i]
			}
			if i < len(c.got) {
				g = c.got[i]
			}
			if l != g {
				t.Fatalf("%v: %s differ at line %d:\n  loop: %s\n  wait: %s", data, c.what, i, l, g)
			}
		}
	}
	if loop.switches != wait.switches || loop.busy != wait.busy {
		t.Fatalf("%v: loop made %d switches with the node busy %v, the polled waits %d and %v",
			data, loop.switches, loop.busy, wait.switches, wait.busy)
	}
}

// polledSeeds are hand-written networks for the cases that matter most;
// the fuzzer starts from them.
var polledSeeds = [][]byte{
	// A 10-unit Low job in 4-unit slices from t+0; High requests land
	// exactly on its boundaries at 4 and 8 units, the second armed
	// after the slice's grant rather than before it.
	{3, 0, 0, 4, 0, 9, 2, 4, 1, 2, 8, 1},
	// E1's overload shape: a job longer than the grid period whose
	// boundaries fall on ticks while a High grid process on the same
	// node has commands to take and work to do.
	{3, 1 | 2 | 3<<2, 0, 4, 0, 15, 0, 3, 7, 0, 8, 2, 3, 16, 11},
	// Commands on a grid instant, half a unit after one, from both
	// senders at once, and while the grid process is still working.
	{1, 2 | 2<<2, 2, 0, 6, 10, 0x80, 10, 21, 0, 14, 30, 1, 14, 31, 1, 15, 5},
	// Every process contending at once, the slicer's job on no node.
	{0, 16 | 1, 5, 4, 2, 39, 2, 2, 5, 3, 2, 5, 0, 2, 1, 0x84, 40, 20, 0x82, 41, 3},
	// Nothing ever happens: the grid process polls through both runs.
	{2, 0, 1},
}

func TestPolledWaitsAreTheLoopsTheyReplace(t *testing.T) {
	for _, data := range polledSeeds {
		checkPolled(t, data)
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 400; i++ {
		data := make([]byte, 3+3*rng.Intn(30))
		rng.Read(data)
		checkPolled(t, data)
	}
	// The comparison is not vacuous: the seeds really do queue a High
	// request on a slice boundary and take commands on the grid.
	res := polledNet(polledSeeds[0], true)
	if got := strings.Join(res.steps, "\n"); !strings.Contains(got, "[t+300µs] high request 0 served") ||
		!strings.Contains(got, "[t+700µs] slicer job 0 done") {
		t.Errorf("seed 0 ran as:\n%s", got)
	}
}

// FuzzPolledWaits searches for a network on which a polled wait and its
// loop part ways. Run longer with:
//
//	go test -fuzz=FuzzPolledWaits -fuzztime=60s ./internal/occam
func FuzzPolledWaits(f *testing.F) {
	for _, data := range polledSeeds {
		f.Add(data)
	}
	f.Fuzz(checkPolled)
}

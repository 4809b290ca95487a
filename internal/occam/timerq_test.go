package occam

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// tqKey is a firing-order key, for the references the queue is held to.
type tqKey struct {
	at  Time
	seq uint64
}

func (a tqKey) cmp(b tqKey) int {
	if a.at != b.at {
		return int(a.at - b.at)
	}
	return int(a.seq) - int(b.seq)
}

// checkTimerQueue fails t unless q is well formed — every run non-empty
// and of armed events, no run firing before its parent in the heap,
// tail the end of some run or nil — and returns its events still to
// fire.
func checkTimerQueue(t *testing.T, q *timerQueue) (live int) {
	t.Helper()
	tailSeen := q.tail == nil
	for i, r := range q.runs {
		if p := q.runs[max(i-1, 0)/4]; r.at < p.at || (r.at == p.at && r.seq < p.seq) {
			t.Fatalf("run %d (%v, %d) fires before its parent", i, r.at, r.seq)
		}
		if r.head == nil {
			t.Fatalf("run %d is empty", i)
		}
		for ev := r.head; ev != nil; ev = ev.next {
			if !ev.armed {
				t.Fatalf("run %d holds an event not marked armed", i)
			}
			live++
			if ev == q.tail {
				tailSeen = ev.next == nil && r.at == q.tailAt
			}
		}
	}
	if !tailSeen {
		t.Fatal("tail is not the last event of a queued run for tailAt")
	}
	return live
}

// TestTimerQueueFiresInKeyOrder arms and takes at random over
// few distinct instants, so that most events join runs, and holds every
// take to a reference kept sorted by (at, seq).
func TestTimerQueueFiresInKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := &timerQueue{}
	seq := uint64(0)
	type ref struct {
		tqKey
		ev *timerEv
	}
	var want []ref
	take := func() {
		ev := q.take()
		if ev != want[0].ev {
			t.Fatalf("took an event other than (%v, %d)", want[0].at, want[0].seq)
		}
		if ev.armed {
			t.Fatal("a taken event is still marked armed")
		}
		want = want[1:]
	}
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(want) == 0:
			// Often the instant just armed for, so runs grow; else one
			// of few, so runs break and instants hold several runs.
			at := q.tailAt
			if rng.Intn(3) == 0 {
				at = Time(rng.Intn(12))
			}
			seq++
			r := ref{tqKey{at, seq}, &timerEv{armed: true}}
			q.push(at, seq, r.ev)
			i, _ := slices.BinarySearchFunc(want, r, func(a, b ref) int { return a.cmp(b.tqKey) })
			want = slices.Insert(want, i, r)
		default:
			take()
		}
		checkTimerQueue(t, q)
	}
	if len(q.runs) >= len(want) {
		t.Errorf("%d events lie in %d runs: nothing joined", len(want), len(q.runs))
	}
	for len(want) > 0 {
		take()
	}
	if len(q.runs) != 0 || q.tail != nil {
		t.Fatalf("emptied queue holds %d runs, tail %v", len(q.runs), q.tail)
	}
}

func TestTimerQueueShape(t *testing.T) {
	const n = 20
	ms := Time(time.Millisecond)
	sleepers := func(rt *Runtime, at func(i int) Time) {
		for i := 0; i < n; i++ {
			rt.Go(fmt.Sprint("p", i), nil, Low, func(p *Proc) { p.SleepUntil(at(i)) })
		}
		if err := rt.RunUntil(ms / 2); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("sleepers to one instant are one run", func(t *testing.T) {
		rt := NewRuntime()
		sleepers(rt, func(int) Time { return ms })
		if got := len(rt.timers.runs); got != 1 {
			t.Errorf("%d runs, want 1", got)
		}
		if live := checkTimerQueue(t, &rt.timers); live != n {
			t.Errorf("%d events pending, want %d", live, n)
		}
		if err := rt.Run(); err != nil || rt.Now() != ms {
			t.Errorf("ran to %v: %v", rt.Now(), err)
		}
	})
	t.Run("distinct instants are a run each", func(t *testing.T) {
		rt := NewRuntime()
		sleepers(rt, func(i int) Time { return ms + Time(n-i) })
		if got := len(rt.timers.runs); got != n {
			t.Errorf("%d runs, want %d", got, n)
		}
		checkTimerQueue(t, &rt.timers)
		if err := rt.Run(); err != nil || rt.Now() != ms+n {
			t.Errorf("ran to %v: %v", rt.Now(), err)
		}
	})

	// The rest arm Timers that log their names as they fire.
	var (
		rt    *Runtime
		fired []string
	)
	timer := func(name string, then func(s Sched)) *Timer {
		return NewTimer(rt, func(s Sched) {
			fired = append(fired, name)
			if then != nil {
				then(s)
			}
		})
	}
	expect := func(t *testing.T, runs int, order string) {
		t.Helper()
		if got := len(rt.timers.runs); got != runs {
			t.Errorf("%d runs queued, want %d", got, runs)
		}
		checkTimerQueue(t, &rt.timers)
		if err := rt.RunUntil(ms); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(fired, " "); got != order {
			t.Errorf("fired %q, want %q", got, order)
		}
		if len(rt.timers.runs) != 0 || rt.timers.tail != nil {
			t.Errorf("%d runs left, tail %v", len(rt.timers.runs), rt.timers.tail)
		}
	}
	reset := func() { rt, fired = NewRuntime(), nil }

	t.Run("an arm for another instant breaks a run in two", func(t *testing.T) {
		reset()
		for _, name := range []string{"a", "b", "x", "c", "d"} {
			at := ms
			if name == "x" {
				at = ms / 2
			}
			timer(name, nil).Schedule(at)
		}
		expect(t, 3, "x a b c d")
	})
	t.Run("a callback arming at now fires in the same pass, last", func(t *testing.T) {
		reset()
		woken := NewSignal(rt, "woken")
		rt.Go("proc", nil, High, func(p *Proc) {
			woken.Wait(p)
			fired = append(fired, "proc")
		})
		later := timer("later", nil)
		late := timer("late", func(s Sched) {
			// The last event queued for now, and out of the queue:
			// later opens a run of its own, which the pass goes on to.
			s.Schedule(later, 0)
		})
		timer("a", func(s Sched) {
			// The run of b and c is the newest: late joins it. proc
			// cannot run before the pass is over.
			s.Raise(woken)
			s.Schedule(late, s.Now())
		}).Schedule(ms)
		timer("early", nil).Schedule(ms / 4)
		timer("b", nil).Schedule(ms)
		timer("c", nil).Schedule(ms)
		expect(t, 3, "early a b c late later proc")
	})
	t.Run("a Timer re-armed from its own callback for the same instant", func(t *testing.T) {
		reset()
		laps := 0
		var tm *Timer
		tm = timer("tm", func(s Sched) {
			if tm.Active() {
				t.Error("the Timer is still armed inside its callback")
			}
			if laps++; laps < 3 {
				s.Schedule(tm, s.Now())
			}
		})
		tm.Schedule(ms)
		timer("other", nil).Schedule(ms)
		expect(t, 1, "tm other tm tm")
	})
	for _, c := range []struct{ where, left string }{
		{"head", "b c d"}, {"middle", "a b d"}, {"tail", "a b c"}, {"whole", ""},
	} {
		t.Run("cancelled at the "+c.where+" of a run", func(t *testing.T) {
			// Cancelled as the After guard cancels: a flag the callback
			// reads, so the event keeps its place and fires as a no-op.
			reset()
			for _, name := range []string{"a", "b", "c", "d"} {
				off := !strings.Contains(c.left, name)
				NewTimer(rt, func(Sched) {
					if !off {
						fired = append(fired, name)
					}
				}).Schedule(ms / 2)
			}
			if live := checkTimerQueue(t, &rt.timers); live != 4 {
				t.Errorf("%d events queued, want 4", live)
			}
			expect(t, 1, c.left)
		})
	}
	t.Run("a process event armed twice panics with the process named", func(t *testing.T) {
		reset()
		defer rt.Shutdown()
		rt.Go("greedy", nil, Low, func(p *Proc) {
			p.rt.arm(&p.ev, ms)
			p.SleepUntil(2 * ms)
		})
		var got any
		func() {
			defer func() { got = recover() }()
			rt.Run()
		}()
		if msg, _ := got.(string); !strings.Contains(msg, "process greedy armed its event") {
			t.Errorf("Run panicked with %v", got)
		}
	})
}

func TestTimersAllocateNothingOnceWarm(t *testing.T) {
	rt := NewRuntime()
	defer rt.Shutdown()
	cpu := NewNode("cpu")
	for i := 0; i < 3; i++ {
		rt.Go("sleeper", nil, Low, func(p *Proc) {
			for {
				p.Sleep(time.Duration(100+i) * time.Microsecond)
			}
		})
		rt.Go("worker", cpu, Priority(i%2), func(p *Proc) {
			for {
				p.Consume(70 * time.Microsecond)
			}
		})
	}
	ticks := 0
	var tm *Timer
	tm = NewTimer(rt, func(s Sched) {
		ticks++
		s.Schedule(tm, s.Now().Add(time.Duration(ticks%3)*50*time.Microsecond))
	})
	tm.Schedule(0)
	run := func() {
		if err := rt.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	run() // the queue, the run queues and the node's reach their size
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("1 ms of sleeps, grants and Timer re-arms allocates %.1f objects", allocs)
	}
	if ticks < 1000 {
		t.Errorf("only %d ticks", ticks)
	}
}

// The scheduler runs on the stack of whichever process is parking, and
// a simulated system is thousands of Procs (4 517 on the benchmark's
// fanout): a Proc stays inside the allocator's 224-byte class, which
// became its class when it took its event in.
func TestProcStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Proc{}); size > 224 {
		t.Errorf("Proc is %d bytes, past the 224-byte size class", size)
	}
}

// The model FuzzTimerQueue checks the runtime against: the pending
// events in a slice kept sorted by (at, seq).

// tqUnit is the spacing of the near instants.
const tqUnit = Time(10 * time.Microsecond)

// tqPlan is what an event does when it fires: arm one fresh, inert
// event per entry of kids, that far after now, then itself again while
// laps remain, lapAfter after now.
type tqPlan struct {
	kids     []Time
	laps     int
	lapAfter Time
}

func tqPlanOf(b byte) tqPlan {
	pl := tqPlan{laps: int(b & 3), lapAfter: Time(b>>2&1) * tqUnit}
	for i := 0; i < int(b>>3&3); i++ {
		pl.kids = append(pl.kids, Time(b>>(5+i)&1)*tqUnit)
	}
	return pl
}

type tqModelEv struct {
	tqKey
	id int
	tqPlan
}

type tqModel struct {
	now     Time
	seq     uint64
	ids     int
	pending []*tqModelEv
	fired   []string
}

func (m *tqModel) arm(e *tqModelEv, at Time) {
	m.seq++
	e.tqKey = tqKey{max(at, m.now), m.seq}
	i, _ := slices.BinarySearchFunc(m.pending, e, func(a, b *tqModelEv) int { return a.cmp(b.tqKey) })
	m.pending = slices.Insert(m.pending, i, e)
}

func (m *tqModel) add(at Time, pl tqPlan) *tqModelEv {
	e := &tqModelEv{id: m.ids, tqPlan: pl}
	m.ids++
	m.arm(e, at)
	return e
}

func (m *tqModel) runUntil(limit Time) {
	for len(m.pending) > 0 && m.pending[0].at <= limit {
		e := m.pending[0]
		m.pending = m.pending[1:]
		m.now = e.at
		m.fired = append(m.fired, fmt.Sprintf("%d@%v", e.id, m.now))
		for _, after := range e.kids {
			m.add(m.now+after, tqPlan{})
		}
		if e.laps > 0 {
			e.laps--
			m.arm(e, m.now+e.lapAfter)
		}
	}
	m.now = limit
}

// tqReal is the same events as Timers on a Runtime.
type tqReal struct {
	rt     *Runtime
	timers []*Timer // by id
	fired  []string
}

func (r *tqReal) add(pl tqPlan) *Timer {
	id := len(r.timers)
	var tm *Timer
	tm = NewTimer(r.rt, func(s Sched) {
		r.fired = append(r.fired, fmt.Sprintf("%d@%v", id, s.Now()))
		for _, after := range pl.kids {
			s.Schedule(r.add(tqPlan{}), s.Now()+after)
		}
		if pl.laps > 0 {
			pl.laps--
			s.Schedule(tm, s.Now()+pl.lapAfter)
		}
	})
	r.timers = append(r.timers, tm)
	return tm
}

// checkTimerQueueOps plays data as three-byte operations — arm a new
// event (at now, in the past, at one of four near instants or far off;
// the third byte is its plan) or run to the next pending instant or up
// to three units past it — on a Runtime and on
// the model, and compares them after every one.
func checkTimerQueueOps(t *testing.T, data []byte) {
	m := &tqModel{}
	r := &tqReal{rt: NewRuntime()}
	if len(data) > 3*200 {
		data = data[:3*200]
	}
	for ; len(data) >= 3; data = data[3:] {
		op, arg, plan := data[0]%8, data[1], data[2]
		switch {
		case op < 5:
			var at Time
			switch k := arg % 8; {
			case k == 0:
				at = m.now
			case k == 1:
				at = m.now - tqUnit
			case k < 6:
				at = (m.now/tqUnit + Time(k-1)) * tqUnit
			default:
				at = m.now + Time(1000+int(arg))*tqUnit
			}
			m.add(at, tqPlanOf(plan))
			r.add(tqPlanOf(plan)).Schedule(at)
		default:
			limit := m.now + Time(arg%4)*tqUnit
			if len(m.pending) > 0 {
				limit = m.pending[0].at + Time(arg%4)*tqUnit
			}
			m.runUntil(limit)
			if err := r.rt.RunUntil(limit); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(r.fired, m.fired) {
			t.Fatalf("fired %v, the model %v", r.fired, m.fired)
		}
		if live := checkTimerQueue(t, &r.rt.timers); live != len(m.pending) || r.rt.now != m.now || r.rt.seq != m.seq {
			t.Fatalf("%d pending at %v after %d arms, the model %d at %v after %d",
				live, r.rt.now, r.rt.seq, len(m.pending), m.now, m.seq)
		}
	}
}

// tqSeeds are op streams for the cases the queue's comments argue; the
// fuzzer starts from them.
var tqSeeds = [][]byte{
	// Five events at one instant, then run: one run.
	{0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 6, 0, 0},
	// A run broken by an arm for an earlier instant; both drained at once.
	{0, 4, 0, 0, 4, 0, 0, 2, 0, 0, 4, 0, 6, 3, 0},
	// Events whose callbacks arm at now and a unit on, and re-arm
	// themselves at now three times, between others at the same instant.
	{0, 2, 0x03 | 0x10 | 0x20, 0, 2, 0, 0, 2, 0x03 | 0x04 | 0x18 | 0x40, 6, 0, 0, 6, 1, 0, 6, 3, 0},
	// Armed in the past and at now with the clock off zero, and far
	// off, so that the clock jumps to them.
	{0, 5, 0, 6, 0, 0, 0, 1, 1, 0, 0, 0, 0, 7, 0, 0, 6, 0, 6, 2, 0, 6, 0, 0},
}

func TestTimerQueueAgainstModel(t *testing.T) {
	for _, data := range tqSeeds {
		checkTimerQueueOps(t, data)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		data := make([]byte, 3*rng.Intn(120))
		rng.Read(data)
		checkTimerQueueOps(t, data)
	}
}

// FuzzTimerQueue searches for an op stream on which the runtime and the
// sorted-slice model part ways. Run longer with:
//
//	go test -fuzz=FuzzTimerQueue -fuzztime=60s ./internal/occam
func FuzzTimerQueue(f *testing.F) {
	for _, data := range tqSeeds {
		f.Add(data)
	}
	f.Fuzz(checkTimerQueueOps)
}

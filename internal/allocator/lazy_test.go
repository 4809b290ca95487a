package allocator

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/occam"
)

// eagerPool is the reference for a pool that makes its buffers on first
// grant: the pool as it was when New made every buffer up front, its
// free list stacked n-1 … 0, granted from the end and released onto it,
// with the requesters of a dry pool served oldest first.
type eagerPool struct {
	now         occam.Time
	refs        []int
	free        []int
	waiters     []int // requester ids, oldest first
	starved     bool
	starvations uint64
	events      []string // the starvation trace: "AT overload|recover"
}

func newEagerPool(n int) *eagerPool {
	m := &eagerPool{refs: make([]int, n)}
	for i := n - 1; i >= 0; i-- {
		m.free = append(m.free, i)
	}
	return m
}

func (m *eagerPool) grant() int {
	i := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.refs[i] = 1
	if len(m.free) == 0 && !m.starved {
		m.starved = true
		m.starvations++
		m.events = append(m.events, fmt.Sprintf("%v overload", m.now))
	}
	return i
}

// get returns the buffer requester id is granted at once, or -1 when it
// has to wait.
func (m *eagerPool) get(id int) int {
	if len(m.free) > 0 && len(m.waiters) == 0 {
		return m.grant()
	}
	m.waiters = append(m.waiters, id)
	return -1
}

// release drops one reference to buffer i. A buffer it frees for a
// waiting requester is returned with that requester's id; otherwise id
// is -1.
func (m *eagerPool) release(i int) (id, granted int) {
	if m.refs[i]--; m.refs[i] == 0 {
		m.free = append(m.free, i)
	}
	if len(m.free) > 0 {
		if m.starved {
			m.starved = false
			m.events = append(m.events, fmt.Sprintf("%v recover", m.now))
		}
		if len(m.waiters) > 0 {
			id, m.waiters = m.waiters[0], m.waiters[1:]
			return id, m.grant()
		}
	}
	return -1, -1
}

// TestPoolGrantOrderMatchesEagerPool drives a pool and the eager
// reference through the same seeded mix of GetInto, Retain and Release,
// the pool often dry with requesters queued on it. After every step the
// grants so far, Starvations, the free and total gauges and the
// starvation trace must be the reference's.
func TestPoolGrantOrderMatchesEagerPool(t *testing.T) {
	var starvedRuns, queuedGrants int
	for seed := int64(1); seed <= 40; seed++ {
		const n = 5
		rt := occam.NewRuntime()
		reg := obs.New(rt)
		pl := New(rt, nil, n, nil)
		pl.Observe(reg, "x")
		m := newEagerPool(n)
		rng := rand.New(rand.NewSource(seed))

		var (
			got, want []string
			held      []int // one entry per reference the test holds, by buffer index
			bufs      = make(map[int]*Buffer)
			ids       int
		)
		// get starts requester id, a stackless process asking with GetInto.
		get := func(id int) {
			var buf *Buffer
			asked := false
			rt.GoStep(fmt.Sprintf("req%d", id), nil, occam.Low, occam.StepFunc(func(p *occam.Proc) {
				if !asked {
					asked = true
					if pl.GetInto(p, &buf); p.Parked() {
						return
					}
				}
				got = append(got, fmt.Sprintf("req%d<-%d", id, buf.Index))
				bufs[buf.Index] = buf
			}))
		}
		granted := func(id, i int) {
			want = append(want, fmt.Sprintf("req%d<-%d", id, i))
			held = append(held, i)
		}
		release := func(p *occam.Proc, k int) {
			i := held[k]
			held = slices.Delete(held, k, k+1)
			pl.Release(p, bufs[i])
			if id, g := m.release(i); id >= 0 {
				queuedGrants++
				granted(id, g)
			}
		}
		check := func(step int) bool {
			snap := reg.Snapshot()
			free, _ := snap.Get("allocator_free", obs.L("box", "x"))
			total, _ := snap.Get("allocator_total", obs.L("box", "x"))
			var trace []string
			for _, e := range reg.Tracer().Events() {
				trace = append(trace, fmt.Sprintf("%v %v", e.At, e.Kind))
			}
			if !slices.Equal(got, want) || pl.Starvations() != m.starvations ||
				free.Value != float64(len(m.free)) || total.Value != n || !slices.Equal(trace, m.events) {
				t.Errorf("seed %d step %d: grants %v, %d starvations, free %v/%v, trace %v; want %v, %d, %d/%d, %v",
					seed, step, got, pl.Starvations(), free.Value, total.Value, trace,
					want, m.starvations, len(m.free), n, m.events)
				return false
			}
			return true
		}

		rt.Go("driver", nil, occam.High, func(p *occam.Proc) {
			for step := 0; step < 200; step++ {
				m.now = p.Now()
				switch r := rng.Intn(100); {
				case r < 40 || len(held) == 0:
					ids++
					get(ids)
					if i := m.get(ids); i >= 0 {
						granted(ids, i)
					}
				case r < 85:
					release(p, rng.Intn(len(held)))
				default:
					k, extra := rng.Intn(len(held)), 1+rng.Intn(2)
					pl.Retain(p, bufs[held[k]], extra)
					m.refs[held[k]] += extra
					for range extra {
						held = append(held, held[k])
					}
				}
				p.Sleep(time.Millisecond) // the requesters take their turns
				if !check(step) {
					return
				}
			}
			// Drain: every reference released, every queued requester served.
			for len(held) > 0 {
				m.now = p.Now()
				release(p, 0)
				p.Sleep(time.Millisecond)
				if !check(-1) {
					return
				}
			}
		})
		if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
			t.Fatal(err)
		}
		rt.Shutdown()
		if m.starvations > 0 {
			starvedRuns++
		}
	}
	// The comparison is worth making only if the pool ran dry and served
	// queued requesters.
	if starvedRuns < 20 || queuedGrants < 500 {
		t.Errorf("%d of 40 runs starved and %d grants went to queued requesters; want ≥ 20 and ≥ 500", starvedRuns, queuedGrants)
	}
}

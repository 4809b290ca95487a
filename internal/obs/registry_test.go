package obs

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// TestRowFitsTheFortyEightByteClass: a row — table, object and labels
// — is what a registered object costs the registry beyond its labels
// and a pointer in the row list.
func TestRowFitsTheFortyEightByteClass(t *testing.T) {
	if n := unsafe.Sizeof(row{}); n > 48 {
		t.Errorf("row is %d bytes, want at most 48", n)
	}
}

// rowObj is what the tables of the tests below read.
type rowObj struct {
	n uint64
	g float64
	h *Histogram
}

// TestSecondRegistrationPanicsAtSnapshot: registering an identity again,
// as a lone counter or as a table row, adds a second row, and the next
// snapshot panics naming the sample ID the two share.
func TestSecondRegistrationPanicsAtSnapshot(t *testing.T) {
	tab := NewTable(CounterOf("pre_total", (*Counter).Value),
		GaugeOf("pre_level", func(c *Counter) float64 { return float64(c.Value()) }))
	for _, tc := range []struct {
		name     string
		register func(r *Registry)
		want     string
	}{
		{"lone counter", func(r *Registry) { r.Counter("widgets_total", L("box", "a")) }, `obs: widgets_total{box="a"} registered twice`},
		{"table row", func(r *Registry) { tab.Register(r, NewCounter(), L("k", "v")) }, `obs: pre_level{k="v"} registered twice`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(nil)
			tc.register(r)
			r.Counter("widgets_total", L("box", "b"))
			tab.Register(r, NewCounter(), L("k", "w"))
			r.Snapshot()
			tc.register(r)
			if got := panics(func() { r.Snapshot() }); got != tc.want {
				t.Errorf("snapshot panicked with %q, want %q", got, tc.want)
			}
		})
	}
}

// register returns a call registering obj as a row of a new one-column
// table of col, labelled with labels.
func register(col Column[*rowObj], labels ...Label) func(r *Registry) {
	return func(r *Registry) { NewTable(col).Register(r, &rowObj{h: NewHistogram()}, labels...) }
}

// TestReRegistrationAsAnotherKindPanicsNamingTheKey: a family
// registered as one kind cannot come back as another, nor be read by a
// second table or as a lone counter as well, and the panic names the
// sample ID being registered.
func TestReRegistrationAsAnotherKindPanicsNamingTheKey(t *testing.T) {
	counter := func(o *rowObj) uint64 { return o.n }
	gauge := func(o *rowObj) float64 { return o.g }
	for _, tc := range []struct {
		name  string
		first func(r *Registry)
		again func(r *Registry)
		want  string
	}{
		{"counter as gauge", func(r *Registry) { r.Counter("x_total", L("box", "a")) },
			register(GaugeOf("x_total", gauge), L("box", "a")), `x_total{box="a"} re-registered as gauge, was counter`},
		{"gauge func as histogram", register(GaugeOf("x", gauge)),
			register(HistogramOf("x", func(o *rowObj) *Histogram { return o.h })), "x re-registered as histogram, was gauge"},
		{"counter func as counter", register(CounterOf("x_total", counter)),
			func(r *Registry) { r.Counter("x_total") }, "x_total is read by two tables"},
		{"gauge func as gauge", register(GaugeOf("x", gauge)),
			register(GaugeOf("x", gauge)), "x is read by two tables"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(nil)
			tc.first(r)
			defer func() {
				if got := fmt.Sprint(recover()); !strings.Contains(got, tc.want) {
					t.Errorf("panicked with %q, want %q", got, tc.want)
				}
			}()
			tc.again(r)
		})
	}
}

// TestRegistrationAllocationsRepeat registers the same 5 000 rows into
// fresh registries, and counts from the exact heap profile what the
// registry's own code allocates in each window of 250: a row each and
// one row list a time the list grows, the same every time. One row
// registered first claims the family, whose map entry is not counted.
// Registering each row again makes the next snapshot panic.
func TestRegistrationAllocationsRepeat(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	tab := NewTable(CounterOf("repeat_total", func(o *rowObj) uint64 { return o.n }))
	labels := make([][]Label, 5000)
	for i := range labels {
		labels[i] = []Label{L("box", fmt.Sprint(i))}
	}
	obj := &rowObj{}
	var first []int64
	var r *Registry
	for run := 0; run < 8; run++ {
		r = New(nil)
		tab.Register(r, obj)
		var windows []int64
		for w := 0; w < len(labels); w += 250 {
			want := int64(250)
			before := registryAllocs()
			for _, lb := range labels[w : w+250] {
				grown := cap(r.rows)
				tab.Register(r, obj, lb...)
				if cap(r.rows) != grown {
					want++
				}
			}
			got := registryAllocs() - before
			if got != want {
				t.Fatalf("registry %d allocated %d objects registering rows %d to %d, want %d", run, got, w, w+249, want)
			}
			windows = append(windows, got)
		}
		if run == 0 {
			first = windows
		} else if !slices.Equal(windows, first) {
			t.Fatalf("registry %d allocated %v objects a window of 250 rows, the first %v", run, windows, first)
		}
	}
	if n := len(r.Snapshot().Samples); n != len(labels)+1 {
		t.Fatalf("%d samples, want %d", n, len(labels)+1)
	}
	for _, lb := range labels {
		tab.Register(r, &rowObj{n: 1}, lb...)
	}
	if got, want := panics(func() { r.Snapshot() }), `obs: repeat_total{box="0"} registered twice`; got != want {
		t.Errorf("registering every row again: the snapshot panicked with %q, want %q", got, want)
	}
}

// registryAllocs returns how many objects have been allocated under a
// Registry method, as the heap profile of the last collection has them.
func registryAllocs() int64 {
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 64)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var n int64
	for _, rec := range recs {
		frames := runtime.CallersFrames(rec.Stack())
		for f, more := frames.Next(); ; f, more = frames.Next() {
			if strings.HasPrefix(f.Function, "repro/internal/obs.(*Registry)") {
				n += rec.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return n
}

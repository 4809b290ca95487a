package obs

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestRowFitsTheSixtyFourByteClass: a row — table, object, labels,
// identity hash and chain link — is what a registered object costs the
// registry beyond its labels, a pointer in the row list and its share
// of the hash table.
func TestRowFitsTheSixtyFourByteClass(t *testing.T) {
	if n := unsafe.Sizeof(row{}); n > 64 {
		t.Errorf("row is %d bytes, want at most 64", n)
	}
}

func TestHashKeyIsFNVOfKey(t *testing.T) {
	for _, labels := range [][]Label{nil, {L("box", "a")}, {L("box", "a"), L("output", "net-audio")}, {L("", "")}} {
		h := fnv.New64a()
		h.Write([]byte(key("x_total", labels)))
		if got, want := hashKey("x_total", labels), h.Sum64(); got != want {
			t.Errorf("hashKey(x_total, %v) = %#x, want the FNV-1a of %q, %#x", labels, got, key("x_total", labels), want)
		}
	}
}

// chainObj is what the tables of the tests below read.
type chainObj struct {
	n uint64
	g float64
	h *Histogram
}

// One table a kind, so that each family's rows hash apart.
var chainTables = []*Table[*chainObj]{
	NewTable(CounterOf("tc_total", func(o *chainObj) uint64 { return o.n })),
	NewTable(GaugeOf("tg", func(o *chainObj) float64 { return o.g })),
	NewTable(HistogramOf("th_ms", func(o *chainObj) *Histogram { return o.h })),
}

// TestHashChainKeepsCollidingIdentitiesApart plants a row of another
// identity under the hash of each real identity, as a hash collision
// would, then registers the real one twice: a lone counter and a row of
// a counter, a gauge and a histogram table. The chain must keep the two
// apart, the second registration must keep the first's object, and each
// identity must read its own source.
func TestHashChainKeepsCollidingIdentitiesApart(t *testing.T) {
	r := New(nil)
	lb := L("box", "a")
	plant := func(name string) *Counter {
		c := NewCounter()
		c.Add(1000)
		plant(r, hashKey(name, []Label{lb}), "planted_"+name, c, L("box", "z"))
		return c
	}
	names := []string{"c_total", "tc_total", "tg", "th_ms"}
	planted := make(map[string]*Counter)
	for _, name := range names {
		planted[name] = plant(name)
	}

	c := r.Counter("c_total", lb)
	c.Add(1)
	if c2 := r.Counter("c_total", lb); c2 != c || c == planted["c_total"] {
		t.Error("Counter: re-registration did not return the first counter, or returned the planted one")
	}
	first := &chainObj{n: 2, g: 4, h: NewHistogram()}
	first.h.Observe(6 * time.Millisecond)
	for _, tab := range chainTables {
		tab.Register(r, first, lb)
		tab.Register(r, &chainObj{n: 99, g: 99, h: NewHistogram()}, lb)
	}
	// Under each hash the chain holds the real row, then the planted
	// one; other hashes may share the bucket.
	for _, name := range names {
		h := hashKey(name, []Label{lb})
		var under []*row
		for w := *r.chain(h); w != nil; w = w.next {
			if w.hash == h {
				under = append(under, w)
			}
		}
		if len(under) != 2 || under[0].tab.cols[0].name != name || under[1].obj != planted[name] {
			t.Errorf("the chain under %s's hash is not [%s, planted_%s]", name, name, name)
		}
	}

	snap := r.Snapshot()
	if len(snap.Samples) != 2*len(names) {
		t.Errorf("%d samples, want %d", len(snap.Samples), 2*len(names))
	}
	for _, k := range []struct {
		name  string
		kind  Kind
		value float64
	}{{"c_total", KindCounter, 1}, {"tc_total", KindCounter, 2}, {"tg", KindGauge, 4}} {
		if sm, ok := snap.Get(k.name, lb); !ok || sm.Value != k.value || sm.Kind != k.kind {
			t.Errorf("%s reads %v %v (found %v), want %v %v", k.name, sm.Kind, sm.Value, ok, k.kind, k.value)
		}
	}
	if sm, ok := snap.Get("th_ms", lb); !ok || sm.Kind != KindHistogram || sm.Count != 1 {
		t.Errorf("th_ms reads %+v (found %v), want one observation", sm, ok)
	}
	for _, name := range names {
		if sm, _ := snap.Get("planted_"+name, L("box", "z")); sm.Value != 1000 {
			t.Errorf("planted_%s reads %v, want 1000", name, sm.Value)
		}
	}
}

// plant adds a one-counter row of family name under hash h, whatever
// its identity hashes to, as a collision with h's identity would.
func plant(r *Registry, h uint64, name string, c *Counter, labels ...Label) {
	t := single(name)
	r.families[name] = t
	r.link(&row{tab: t, obj: c, labels: labels, hash: h})
	r.samples++
}

// register returns a call registering obj as a row of a new one-column
// table of col, labelled with labels.
func register(col Column[*chainObj], labels ...Label) func(r *Registry) {
	return func(r *Registry) { NewTable(col).Register(r, &chainObj{h: NewHistogram()}, labels...) }
}

// TestReRegistrationAsAnotherKindPanicsNamingTheKey: a family
// registered as one kind cannot come back as another, nor be read by a
// second table or as a lone counter as well, and the panic names it.
func TestReRegistrationAsAnotherKindPanicsNamingTheKey(t *testing.T) {
	counter := func(o *chainObj) uint64 { return o.n }
	gauge := func(o *chainObj) float64 { return o.g }
	for _, tc := range []struct {
		name  string
		first func(r *Registry)
		again func(r *Registry)
		want  string
	}{
		{"counter as gauge", func(r *Registry) { r.Counter("x_total", L("box", "a")) },
			register(GaugeOf("x_total", gauge), L("box", "a")), "x_total|box=a re-registered as gauge, was counter"},
		{"gauge func as histogram", register(GaugeOf("x", gauge)),
			register(HistogramOf("x", func(o *chainObj) *Histogram { return o.h })), "x re-registered as histogram, was gauge"},
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
// registry's own code allocates in each window of 250: the same every
// time. A Go map keyed by identity would not, for its tables split as
// its per-process hash seed spreads the keys, so which window, like a
// run's timed one, takes a split would vary. Registering each row again
// after the table has doubled finds the first.
func TestRegistrationAllocationsRepeat(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	tab := NewTable(CounterOf("repeat_total", func(o *chainObj) uint64 { return o.n }))
	labels := make([][]Label, 5000)
	for i := range labels {
		labels[i] = []Label{L("box", fmt.Sprint(i))}
	}
	obj := &chainObj{}
	var first []int64
	var r *Registry
	for run := 0; run < 8; run++ {
		r = New(nil)
		var windows []int64
		for w := 0; w < len(labels); w += 250 {
			before := registryAllocs()
			for _, lb := range labels[w : w+250] {
				tab.Register(r, obj, lb...)
			}
			windows = append(windows, registryAllocs()-before)
		}
		if run == 0 {
			first = windows
		} else if !slices.Equal(windows, first) {
			t.Fatalf("registry %d allocated %v objects a window of 250 rows, the first %v", run, windows, first)
		}
	}
	for _, lb := range labels {
		tab.Register(r, &chainObj{n: 1}, lb...)
	}
	if snap := r.Snapshot(); len(snap.Samples) != len(labels) || snap.Total("repeat_total") != 0 {
		t.Errorf("registering every row again left %d samples totalling %v, want %d reading the first objects, 0",
			len(snap.Samples), snap.Total("repeat_total"), len(labels))
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

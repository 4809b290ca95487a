package obs

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestRowFitsTheSixtyFourByteClass: a row — table, object, labels and
// chain link — is what a registered object costs the registry beyond
// its labels, a pointer in the row list and a map slot.
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
	// Each chain holds the real row, then the planted one.
	for _, name := range names {
		w := r.byHash[hashKey(name, []Label{lb})]
		if w == nil || w.tab.cols[0].name != name || w.next == nil || w.next.obj != planted[name] || w.next.next != nil {
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
	w := &row{tab: t, obj: c, labels: labels, next: r.byHash[h]}
	r.byHash[h] = w
	r.rows = append(r.rows, w)
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

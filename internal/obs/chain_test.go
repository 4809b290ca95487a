package obs

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestEntryFitsTheSixtyFourByteClass(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 64 {
		t.Errorf("entry is %d bytes, want 64", n)
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

// TestHashChainKeepsCollidingIdentitiesApart plants an entry of another
// identity under the hash of each real identity, as a hash collision
// would, then registers the real one twice with each of the five kinds
// of source. The chain must keep the two apart, the second registration
// must return the first's instrument, and each identity must read its
// own source.
func TestHashChainKeepsCollidingIdentitiesApart(t *testing.T) {
	r := New(nil)
	lb := L("box", "a")
	plant := func(name string) *Counter {
		c := NewCounter()
		c.Add(1000)
		h := hashKey(name, []Label{lb})
		e := &entry{name: "planted_" + name, labels: []Label{L("box", "z")}, src: c, next: r.byHash[h]}
		r.byHash[h] = e
		r.entries = append(r.entries, e)
		return c
	}
	names := []string{"c_total", "rc_total", "cf_total", "g", "gf", "h_ms"}
	planted := make(map[string]*Counter)
	for _, name := range names {
		planted[name] = plant(name)
	}

	c := r.Counter("c_total", lb)
	c.Add(1)
	if c2 := r.Counter("c_total", lb); c2 != c || c == planted["c_total"] {
		t.Error("Counter: re-registration did not return the first counter, or returned the planted one")
	}
	rc := NewCounter()
	rc.Add(2)
	r.RegisterCounter("rc_total", rc, lb)
	r.RegisterCounter("rc_total", NewCounter(), lb)
	r.CounterFunc("cf_total", func() uint64 { return 3 }, lb)
	r.CounterFunc("cf_total", func() uint64 { return 99 }, lb)
	g := r.Gauge("g", lb)
	g.Set(4)
	if g2 := r.Gauge("g", lb); g2 != g {
		t.Error("Gauge: re-registration did not return the first gauge")
	}
	r.GaugeFunc("gf", func() float64 { return 5 }, lb)
	r.GaugeFunc("gf", func() float64 { return 99 }, lb)
	h := r.Histogram("h_ms", nil, lb)
	h.Observe(6 * time.Millisecond)
	if h2 := r.Histogram("h_ms", []float64{1}, lb); h2 != h {
		t.Error("Histogram: re-registration did not return the first histogram")
	}
	// Each chain holds the real entry, then the planted one.
	for _, name := range names {
		e := r.byHash[hashKey(name, []Label{lb})]
		if e == nil || e.name != name || e.next == nil || e.next.src != planted[name] || e.next.next != nil {
			t.Errorf("the chain under %s's hash is not [%s, planted_%s]", name, name, name)
		}
	}

	snap := r.Snapshot()
	if len(snap.Samples) != 2*len(names) {
		t.Errorf("%d samples, want %d", len(snap.Samples), 2*len(names))
	}
	for name, want := range map[string]float64{"c_total": 1, "rc_total": 2, "cf_total": 3, "g": 4, "gf": 5} {
		if sm, ok := snap.Get(name, lb); !ok || sm.Value != want {
			t.Errorf("%s reads %v (found %v), want %v", name, sm.Value, ok, want)
		}
		if sm, _ := snap.Get("planted_"+name, L("box", "z")); sm.Value != 1000 {
			t.Errorf("planted_%s reads %v, want 1000", name, sm.Value)
		}
	}
	if sm, ok := snap.Get("h_ms", lb); !ok || sm.Kind != KindHistogram || sm.Count != 1 {
		t.Errorf("h_ms reads %+v (found %v), want one observation", sm, ok)
	}
	for _, k := range []struct {
		name string
		want Kind
	}{{"c_total", KindCounter}, {"rc_total", KindCounter}, {"cf_total", KindCounter}, {"g", KindGauge}, {"gf", KindGauge}} {
		if sm, _ := snap.Get(k.name, lb); sm.Kind != k.want {
			t.Errorf("%s is a %v, want a %v", k.name, sm.Kind, k.want)
		}
	}
}

// TestReRegistrationAsAnotherKindPanicsNamingTheKey: an identity
// registered as one kind cannot come back as another, and the panic
// names it.
func TestReRegistrationAsAnotherKindPanicsNamingTheKey(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first func(r *Registry)
		again func(r *Registry)
		want  string
	}{
		{"counter as gauge", func(r *Registry) { r.Counter("x_total", L("box", "a")) },
			func(r *Registry) { r.Gauge("x_total", L("box", "a")) }, "x_total|box=a re-registered as gauge, was counter"},
		{"gauge func as histogram", func(r *Registry) { r.GaugeFunc("x", func() float64 { return 0 }) },
			func(r *Registry) { r.Histogram("x", nil) }, "x re-registered as histogram, was gauge"},
		{"counter func as counter", func(r *Registry) { r.CounterFunc("x_total", func() uint64 { return 0 }) },
			func(r *Registry) { r.Counter("x_total") }, "x_total registered as a func-backed counter"},
		{"gauge func as gauge", func(r *Registry) { r.GaugeFunc("x", func() float64 { return 0 }) },
			func(r *Registry) { r.Gauge("x") }, "x registered as a func-backed gauge"},
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

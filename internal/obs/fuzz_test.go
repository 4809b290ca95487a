package obs

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// fuzzObj is what the fuzzer's tables read.
type fuzzObj struct{ n uint64 }

// The fuzzer's two tables. "a_total" and "b_level" are also in the
// lone-counter name pool, so the fuzzer registers them both ways.
var (
	fuzzA = NewTable(
		CounterOf("a_total", func(o *fuzzObj) uint64 { return o.n }),
		GaugeOf("a_half", func(o *fuzzObj) float64 { return float64(o.n) / 2 }),
		CounterOf("a_split_total", func(o *fuzzObj) uint64 { return o.n + 1 }, L("part", "x")),
		CounterOf("a_split_total", func(o *fuzzObj) uint64 { return o.n + 2 }, L("part", "y")),
	)
	fuzzB = NewTable(
		CounterOf("b_total", func(o *fuzzObj) uint64 { return 3 * o.n }),
		GaugeOf("b_level", func(o *fuzzObj) float64 { return -float64(o.n) }),
	)
	fuzzTables = []struct {
		name string
		t    *Table[*fuzzObj]
	}{{"A", fuzzA}, {"B", fuzzB}}
	fuzzNames  = []string{"x_total", "y", "z_ms", "a_total", "b_level"}
	fuzzLabels = [][]Label{nil, {L("box", "a")}, {L("box", "b")}, {L("box", "a"), L("output", "o")}}
)

// registryModel is the reference the fuzzer checks a Registry against,
// keyed by strings: which table owns each family, every counter
// registered alone by key(name, labels), and every table row by table
// and labels.
type registryModel struct {
	owner   map[string]string // family → "counter" (lone counters), "A" or "B"
	singles map[string]uint64
	rows    map[string]int // table name + "|" + key("", labels) → object index
	objs    [4]uint64
	planted map[string]float64 // rows planted as collisions, by key(name, labels)
}

// samples renders the model's expected snapshot, one line per sample in
// ID order.
func (m *registryModel) samples() []string {
	type line struct{ id, text string }
	var out []line
	add := func(name string, labels []Label, kind Kind, text string) {
		id := Sample{Name: name, Labels: labels}.ID()
		out = append(out, line{id, fmt.Sprintf("%s %v %s", id, kind, text)})
	}
	for k, v := range m.singles {
		name, labels := parseKey(k)
		add(name, labels, KindCounter, fmt.Sprintf("%d", v))
	}
	for k, i := range m.rows {
		tab, rest, _ := strings.Cut(k, "|")
		_, labels := parseKey(rest)
		n := m.objs[i]
		lb := func(extra ...Label) []Label { return append(append([]Label(nil), labels...), extra...) }
		if tab == "A" {
			add("a_total", labels, KindCounter, fmt.Sprintf("%g", float64(n)))
			add("a_half", labels, KindGauge, fmt.Sprintf("%g", float64(n)/2))
			add("a_split_total", lb(L("part", "x")), KindCounter, fmt.Sprintf("%g", float64(n+1)))
			add("a_split_total", lb(L("part", "y")), KindCounter, fmt.Sprintf("%g", float64(n+2)))
		} else {
			add("b_total", labels, KindCounter, fmt.Sprintf("%g", float64(3*n)))
			add("b_level", labels, KindGauge, fmt.Sprintf("%g", -float64(n)))
		}
	}
	for k, v := range m.planted {
		name, labels := parseKey(k)
		add(name, labels, KindCounter, fmt.Sprintf("%g", v))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	lines := make([]string, len(out))
	for i, l := range out {
		lines[i] = l.text
	}
	return lines
}

// parseKey inverts key for the fuzzer's names and labels, which hold no
// '|' or '='.
func parseKey(k string) (string, []Label) {
	parts := strings.Split(k, "|")
	var labels []Label
	for _, p := range parts[1:] {
		key, value, _ := strings.Cut(p, "=")
		labels = append(labels, L(key, value))
	}
	return parts[0], labels
}

// snapshotLines renders a registry snapshot as the model renders its
// expectation.
func snapshotLines(r *Registry) []string {
	var lines []string
	for _, sm := range r.Snapshot().Samples {
		lines = append(lines, fmt.Sprintf("%s %v %g", sm.ID(), sm.Kind, sm.Value))
	}
	return lines
}

// panics runs fn and returns what it panicked with, or "" if it did not.
func panics(fn func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	fn()
	return ""
}

// FuzzRegistry drives random interleavings of lone counters
// (Registry.Counter), table rows, changes to the objects rows read, and
// rows planted under another identity's hash as a collision would be.
// After every step the registry's snapshot must equal the model's, a
// call the model says must panic must panic naming the key, and one it
// says must not, must not.
func FuzzRegistry(f *testing.F) {
	f.Add([]byte{0, 1, 1, 5, 0, 1, 1, 2, 1, 0, 1, 0, 2, 0, 0, 9, 0, 1, 1, 4})
	f.Add([]byte{1, 3, 2, 1, 1, 4, 2, 1, 0, 3, 1, 1, 0, 4, 2, 2, 3, 0, 1, 0, 0, 3, 1, 7})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 3, 2, 0, 1, 3, 2, 0, 2, 2, 9, 0, 2, 2, 3, 3, 2, 2, 0, 0, 2, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := New(nil)
		m := &registryModel{owner: map[string]string{}, singles: map[string]uint64{}, rows: map[string]int{}, planted: map[string]float64{}}
		var objs [4]*fuzzObj
		for i := range objs {
			objs[i] = &fuzzObj{}
		}
		for step := 0; len(ops) >= 4 && step < 64; step, ops = step+1, ops[4:] {
			op, name, labels, v := ops[0]%4, fuzzNames[int(ops[1])%len(fuzzNames)], fuzzLabels[int(ops[2])%len(fuzzLabels)], ops[3]
			k := key(name, labels)
			what := ""    // the call, for failure messages
			want := ""    // the panic the model expects, "" for none
			var do func() // the call on the registry
			switch op {
			case 0:
				what = fmt.Sprintf("Counter(%s).Add(%d)", k, v)
				do = func() { r.Counter(name, labels...).Add(uint64(v)) }
				switch owner, had := m.owner[name]; {
				case had && owner != "counter" && m.tableKind(owner, name) != KindCounter:
					want = fmt.Sprintf("%s re-registered as counter, was %v", k, m.tableKind(owner, name))
				case had && owner != "counter":
					want = k + " is read by two tables"
				default:
					m.owner[name] = "counter"
					m.singles[k] += uint64(v)
				}
			case 1:
				tab, obj := fuzzTables[int(ops[1])%2], int(v)%len(objs)
				what = fmt.Sprintf("table %s Register(obj %d, %s)", tab.name, obj, key("", labels))
				do = func() { tab.t.Register(r, objs[obj], labels...) }
				if c, ok := m.conflict(tab.name, labels); ok {
					want = c
				} else {
					for _, f := range m.families(tab.name) {
						m.owner[f] = tab.name
					}
					if _, had := m.rows[tab.name+"|"+key("", labels)]; !had {
						m.rows[tab.name+"|"+key("", labels)] = obj
					}
				}
			case 2:
				obj := int(ops[1]) % len(objs)
				what = fmt.Sprintf("obj %d += %d", obj, v)
				do = func() { objs[obj].n += uint64(v) }
				m.objs[obj] += uint64(v)
			case 3:
				// Plant a row of a fresh family, labelled alike, under the hash
				// of name+labels or of a table's row under labels, as a
				// collision would put it.
				planted := fmt.Sprintf("planted_%d", step)
				h := hashKey(name, labels)
				if v%2 == 1 {
					h = hashKey(fuzzTables[int(ops[1])%2].t.cols[0].name, labels)
				}
				what = fmt.Sprintf("plant %s under the hash of %s", planted, k)
				do = func() {
					c := NewCounter()
					c.Add(uint64(v))
					plant(r, h, planted, c, labels...)
				}
				m.planted[key(planted, labels)] = float64(v)
			}
			got := panics(do)
			switch {
			case want == "" && got != "":
				t.Fatalf("step %d: %s panicked: %s", step, what, got)
			case want != "" && !strings.Contains(got, want):
				t.Fatalf("step %d: %s panicked with %q, want %q", step, what, got, want)
			}
			if g, w := snapshotLines(r), m.samples(); strings.Join(g, "\n") != strings.Join(w, "\n") {
				t.Fatalf("step %d: after %s the snapshot reads\n%s\nwant\n%s", step, what, strings.Join(g, "\n"), strings.Join(w, "\n"))
			}
		}
	})
}

// families returns a fuzz table's family names.
func (m *registryModel) families(tab string) []string {
	if tab == "A" {
		return []string{"a_total", "a_half", "a_split_total"}
	}
	return []string{"b_total", "b_level"}
}

// tableKind returns the kind of family name in a fuzz table.
func (m *registryModel) tableKind(tab, name string) Kind {
	switch name {
	case "a_half", "b_level":
		return KindGauge
	}
	return KindCounter
}

// conflict returns the panic registering a row of tab under labels must
// raise, if one of its families is someone else's.
func (m *registryModel) conflict(tab string, labels []Label) (string, bool) {
	for _, f := range m.families(tab) {
		owner, had := m.owner[f]
		if !had || owner == tab {
			continue
		}
		id := key(f, labels)
		if kind := m.tableKind(tab, f); owner != kind.String() {
			return fmt.Sprintf("%s re-registered as %v, was %s", id, kind, owner), true
		}
		return id + " is read by two tables", true
	}
	return "", false
}

// TestFuzzTablesAgreeWithTheModel keeps the model's copy of the fuzz
// tables in step with the tables themselves.
func TestFuzzTablesAgreeWithTheModel(t *testing.T) {
	m := &registryModel{}
	for _, tab := range fuzzTables {
		var names []string
		for _, c := range tab.t.cols {
			if len(names) == 0 || names[len(names)-1] != c.name {
				names = append(names, c.name)
			}
			if m.tableKind(tab.name, c.name) != c.kind {
				t.Errorf("table %s: %s is a %v, the model says %v", tab.name, c.name, c.kind, m.tableKind(tab.name, c.name))
			}
		}
		if got, want := strings.Join(names, ","), strings.Join(m.families(tab.name), ","); got != want {
			t.Errorf("table %s has families %s, the model says %s", tab.name, got, want)
		}
	}
}

// FuzzHistogram feeds a histogram a sequence of observations drawn from
// a small alphabet, so values repeat and cycle as playout delays do, and
// of reads at any point between them. At each read and at the end,
// Count, Min, Max, Mean, the 0th, 50th, 99th and 100th percentiles, and
// the snapshot's count, sum and buckets must equal the sorted-slice
// model's.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{40, 41, 40, 41, 255, 40, 41, 42, 43, 44, 255, 40})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 250, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{0, 0, 0, 255, 0, 24, 48, 72, 96, 120, 255, 23, 47})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := New(&fakeClock{})
		h := NewHistogram()
		histograms("h").Register(r, h)
		var ref sliceTracker
		for i, b := range ops {
			if b >= 240 {
				if diff := ref.agreesWith(h, r, 0, 50, 99, 100); diff != "" {
					t.Fatalf("read at op %d: %s", i, diff)
				}
				continue
			}
			// Half-milliseconds from -1 ms, on and between bucket bounds,
			// and a nanosecond offset that sets apart bytes 24 apart.
			d := time.Duration(int(b%24)-2)*500*time.Microsecond + time.Duration(b/24)
			h.Observe(d)
			ref = append(ref, d)
		}
		if diff := ref.agreesWith(h, r, 0, 50, 99, 100); diff != "" {
			t.Fatalf("at the end: %s", diff)
		}
	})
}

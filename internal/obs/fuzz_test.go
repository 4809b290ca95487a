package obs

import (
	"fmt"
	"slices"
	"strconv"
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

// fuzzLabelSet returns the labels an op's byte b names: one of
// fuzzLabels, then, from b = len(fuzzLabels) up, a numbered label i, so
// that one input can register hundreds of identities.
func fuzzLabelSet(b byte) []Label {
	labels := fuzzLabels[int(b)%len(fuzzLabels)]
	if n := int(b) / len(fuzzLabels); n > 0 {
		labels = append(labels[:len(labels):len(labels)], L("i", strconv.Itoa(n)))
	}
	return labels
}

// registryModel is the reference the fuzzer checks a Registry against:
// which table owns each family, and every row by its identity.
type registryModel struct {
	owner map[string]string    // family → "counter" (lone counters), "A" or "B"
	rows  map[string]*modelRow // by table, or "counter" and family, and labels
	objs  [4]uint64
}

// modelRow is one registered row: a lone counter's family and count, or
// a table row's object.
type modelRow struct {
	tab    string // "counter", "A" or "B"
	name   string // the lone counter's family
	labels []Label
	n      uint64 // the lone counter's count
	obj    int    // the table row's object
}

// modelLine is one sample the model expects: its ID and how
// snapshotLines renders it.
type modelLine struct{ id, text string }

// lines renders w's samples.
func (m *registryModel) lines(w *modelRow) []modelLine {
	var out []modelLine
	add := func(name string, labels []Label, kind Kind, v float64) {
		id := Sample{Name: name, Labels: labels}.ID()
		out = append(out, modelLine{id, fmt.Sprintf("%s %v %g", id, kind, v)})
	}
	lb := func(extra ...Label) []Label { return append(append([]Label(nil), w.labels...), extra...) }
	n := float64(m.objs[w.obj])
	switch w.tab {
	case "counter":
		add(w.name, w.labels, KindCounter, float64(w.n))
	case "A":
		add("a_total", w.labels, KindCounter, n)
		add("a_half", w.labels, KindGauge, n/2)
		add("a_split_total", lb(L("part", "x")), KindCounter, n+1)
		add("a_split_total", lb(L("part", "y")), KindCounter, n+2)
	default:
		add("b_total", w.labels, KindCounter, 3*n)
		add("b_level", w.labels, KindGauge, -n)
	}
	return out
}

// add records w, returning "", or, if its identity is registered
// already, leaves the model as it is and returns the ID the next
// snapshot must name: the first of w's samples in ID order.
func (m *registryModel) add(w *modelRow) string {
	k := w.tab + " " + Sample{Name: w.name, Labels: w.labels}.ID()
	if _, had := m.rows[k]; !had {
		m.rows[k] = w
		return ""
	}
	lines := m.lines(w)
	slices.SortFunc(lines, func(a, b modelLine) int { return strings.Compare(a.id, b.id) })
	return lines[0].id
}

// samples renders the model's expected snapshot, one line per sample in
// ID order.
func (m *registryModel) samples() []string {
	var all []modelLine
	for _, w := range m.rows {
		all = append(all, m.lines(w)...)
	}
	slices.SortFunc(all, func(a, b modelLine) int { return strings.Compare(a.id, b.id) })
	out := make([]string, len(all))
	for i, l := range all {
		out[i] = l.text
	}
	return out
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
// (Registry.Counter), table rows and changes to the objects rows read.
// After every step the registry's snapshot must equal the model's, a
// call the model says must panic must panic naming the sample ID, and
// one it says must not, must not. A second registration under an
// identity must make the next snapshot panic naming the ID, which ends
// the input.
func FuzzRegistry(f *testing.F) {
	f.Add([]byte{0, 1, 1, 5, 0, 1, 1, 2, 1, 0, 1, 0, 2, 0, 0, 9, 0, 1, 1, 4})
	f.Add([]byte{1, 3, 2, 1, 1, 4, 2, 1, 0, 3, 1, 1, 0, 4, 2, 2, 2, 0, 1, 0, 0, 3, 1, 7})
	f.Add([]byte{1, 0, 1, 0, 2, 0, 0, 3, 1, 2, 1, 1})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 4, 1, 0, 1, 8, 2, 1, 1, 9, 2, 0, 2, 13, 9, 1, 2, 13, 3, 2, 2, 2, 0, 1, 2, 9, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := New(nil)
		m := &registryModel{owner: map[string]string{}, rows: map[string]*modelRow{}}
		var objs [4]*fuzzObj
		for i := range objs {
			objs[i] = &fuzzObj{}
		}
		for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
			op, name, labels, v := ops[0]%3, fuzzNames[int(ops[1])%len(fuzzNames)], fuzzLabelSet(ops[2]), ops[3]
			id := Sample{Name: name, Labels: labels}.ID()
			what := ""    // the call, for failure messages
			want := ""    // the panic the model expects, "" for none
			twice := ""   // the ID the next snapshot must name as registered twice
			var do func() // the call on the registry
			switch op {
			case 0:
				what = fmt.Sprintf("Counter(%s).Add(%d)", id, v)
				do = func() { r.Counter(name, labels...).Add(uint64(v)) }
				switch owner, had := m.owner[name]; {
				case had && owner != "counter" && m.tableKind(owner, name) != KindCounter:
					want = fmt.Sprintf("%s re-registered as counter, was %v", id, m.tableKind(owner, name))
				case had && owner != "counter":
					want = id + " is read by two tables"
				default:
					m.owner[name] = "counter"
					twice = m.add(&modelRow{tab: "counter", name: name, labels: labels, n: uint64(v)})
				}
			case 1:
				tab, obj := fuzzTables[int(ops[1])%2], int(v)%len(objs)
				what = fmt.Sprintf("table %s Register(obj %d, %s)", tab.name, obj, Sample{Labels: labels}.ID())
				do = func() { tab.t.Register(r, objs[obj], labels...) }
				if c, ok := m.conflict(tab.name, labels); ok {
					want = c
				} else {
					for _, f := range m.families(tab.name) {
						m.owner[f] = tab.name
					}
					twice = m.add(&modelRow{tab: tab.name, labels: labels, obj: obj})
				}
			case 2:
				obj := int(ops[1]) % len(objs)
				what = fmt.Sprintf("obj %d += %d", obj, v)
				do = func() { objs[obj].n += uint64(v) }
				m.objs[obj] += uint64(v)
			}
			got := panics(do)
			switch {
			case want == "" && got != "":
				t.Fatalf("step %d: %s panicked: %s", step, what, got)
			case want != "" && !strings.Contains(got, want):
				t.Fatalf("step %d: %s panicked with %q, want %q", step, what, got, want)
			}
			if twice != "" {
				if got, want := panics(func() { r.Snapshot() }), "obs: "+twice+" registered twice"; got != want {
					t.Fatalf("step %d: after %s the snapshot panicked with %q, want %q", step, what, got, want)
				}
				return
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
		id := Sample{Name: f, Labels: labels}.ID()
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

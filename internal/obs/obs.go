// Package obs is the unified observability layer: a registry of named
// counters, gauges and histograms stamped with *virtual* time
// (occam.Time), plus a bounded ring-buffer event tracer (see trace.go).
//
// It generalises the paper's per-process drop counters and rate-limited
// host-log reports (§3.8) into one cross-cutting substrate: every
// data-path package (atm links, clawback buffers, the mixer, the
// decoupling buffers, the allocator and the box boards) registers each
// of its objects here once, and a whole running simulation can be
// snapshotted, diffed and exported at any instant of virtual time.
//
// Design constraints, in order:
//
//   - Hot paths pay one integer add. An object keeps its counts as plain
//     struct fields, and the registry reads them only when a snapshot
//     asks; there are no locks and no atomics because the occam
//     scheduler runs exactly one process at a time (package occam's
//     defining property).
//   - Instrumented code must not care whether anyone is watching: every
//     registration and Emit is safe on a nil *Registry / *Tracer, and
//     the instruments it hands back are unregistered but fully
//     functional, so unit tests of one package need no registry.
//   - Existing accessor APIs (atm.LinkStats, clawback.Stats,
//     mixer.StreamStats, ...) keep working; they read the same fields
//     the registry does.
//   - The registry is an output. Nothing in the simulation reads it
//     back: a controller reads the queues it manages through their own
//     typed methods, and only reports, assertions and the benchmark read
//     snapshots.
//
// The registry holds tables and rows. A Table is declared once per
// instrumented type, at package level: one column per family, each a
// name, a kind and a reader over the object (CounterOf, GaugeOf,
// HistogramOf). Registering an object adds one row: the table, the
// object and the object's label values. A snapshot reads every column
// of every row. A family name belongs to exactly one table, and a row's
// identity is its table and labels, so registering it again is a
// no-op. Counter registers one counter as a row of a one-column table
// the registry makes for its family.
//
// A row costs what it holds: 64 bytes (table, object, labels and a
// chain link), a pointer in the row list and one slot in a map keyed by
// the 64-bit FNV-1a hash of its identity — 120 live bytes with a
// one-label slice of its own (linux/amd64, go1.24), however many
// families its table has. No key string is built or kept; identities
// whose hashes collide are chained through their rows and told apart by
// table and labels. A histogram makes its multiset at its first fold,
// so one nothing has observed into holds none.
//
// Snapshots can be rendered as a human table (Table) or as
// Prometheus-style text lines (Prometheus).
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/occam"
)

// Clock supplies virtual time for snapshot and event stamps.
// *occam.Runtime satisfies it.
type Clock interface {
	Now() occam.Time
}

// Label is one key=value dimension of an instrument, e.g.
// {Key: "link", Value: "alice-bob.0"}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind classifies an instrument.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "?"
}

// Counter is a monotonically increasing count. The zero value is ready
// to use; an unregistered counter still counts.
type Counter struct {
	v uint64
}

// NewCounter returns an unregistered counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// latencyBucketsMs are every histogram's bucket bounds, suited to the
// paper's millisecond-scale latencies (the headline mic→speaker figure
// is 8 ms).
var latencyBucketsMs = []float64{2, 4, 6, 8, 10, 15, 20, 30, 50, 100, 200, 500}

// Histogram is an exact distribution of durations: a value → count
// multiset (virtual-time delays take few distinct values, and a stream
// that plays for hours must not cost a word per block played), from
// which it reports order statistics directly and, in a Snapshot,
// bucket counts against latencyBucketsMs. Bounds are upper-inclusive;
// one implicit overflow bucket catches the rest.
type Histogram struct {
	n   uint64
	sum time.Duration
	// sumMs is the exported sum: milliseconds as a float, added up one
	// observation at a time so it reads the same whatever order the
	// multiset is later walked in.
	sumMs float64
	// recent and recentN are the latest distinct values and how often
	// each came, not yet added to the multiset: a stream's playout delays
	// cycle through a few values (two blocks a segment, several streams
	// a mixer), and counting one again must not cost a map assign. Slots
	// fill in order; a count of 0 marks the first free one. A value
	// that finds no slot, or a reader, folds them all in.
	recent  [histRecent]time.Duration
	recentN [histRecent]uint32
	folded  *histCounts // the multiset; nil until the first fold
}

// histRecent is how many distinct values a Histogram counts in place.
// Four keep the struct in the 80-byte size class.
const histRecent = 4

// histCounts is a Histogram's folded multiset.
type histCounts struct {
	counts map[time.Duration]uint64 // sample value → occurrences
	keys   []time.Duration          // distinct values ascending; stale when shorter than counts
}

// NewHistogram returns an empty, unregistered histogram.
func NewHistogram() *Histogram { return &Histogram{} }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.n++
	h.sum += d
	h.sumMs += millis(d)
	for i, c := range h.recentN {
		if c == 0 {
			h.recent[i], h.recentN[i] = d, 1
			return
		}
		if h.recent[i] == d && c < math.MaxUint32 {
			h.recentN[i] = c + 1
			return
		}
	}
	h.fold()
	h.recent[0], h.recentN[0] = d, 1
}

// fold adds the recent values to the multiset, frees their slots and
// returns the multiset, making it on the first fold: a histogram
// nothing has observed into holds none, and fold returns nil.
func (h *Histogram) fold() *histCounts {
	if h.recentN[0] == 0 {
		return h.folded
	}
	if h.folded == nil {
		h.folded = &histCounts{counts: make(map[time.Duration]uint64)}
	}
	for i, c := range h.recentN {
		if c == 0 {
			break
		}
		h.folded.counts[h.recent[i]] += uint64(c)
		h.recentN[i] = 0
	}
	return h.folded
}

// Count returns the number of observations.
func (h *Histogram) Count() int { return int(h.n) }

// Min returns the smallest sample (0 if empty).
func (h *Histogram) Min() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sortedKeys()[0]
}

// Max returns the largest sample (0 if empty).
func (h *Histogram) Max() time.Duration {
	if h.n == 0 {
		return 0
	}
	keys := h.sortedKeys()
	return keys[len(keys)-1]
}

// Mean returns the average sample, rounded down to the nanosecond
// (0 if empty).
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Percentile returns the p'th percentile (0 ≤ p ≤ 100) by the
// nearest-rank method.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := int(p / 100 * float64(h.n-1))
	if rank < 0 {
		rank = 0
	}
	if rank >= int(h.n) {
		rank = int(h.n) - 1
	}
	// Walk to the sample at position rank of the sorted samples.
	left, keys, i := uint64(rank), h.sortedKeys(), 0
	counts := h.folded.counts
	for left >= counts[keys[i]] {
		left -= counts[keys[i]]
		i++
	}
	return keys[i]
}

// Jitter returns max − min: the peak-to-peak delay variation, the
// quantity the clawback buffer has to absorb.
func (h *Histogram) Jitter() time.Duration { return h.Max() - h.Min() }

// sortedKeys returns the distinct sample values in ascending order,
// rebuilding the list if a new value has arrived since the last call
// (distinct values are only ever added).
func (h *Histogram) sortedKeys() []time.Duration {
	f := h.fold()
	if len(f.keys) != len(f.counts) {
		f.keys = f.keys[:0]
		for v := range f.counts {
			f.keys = append(f.keys, v)
		}
		slices.Sort(f.keys)
	}
	return f.keys
}

// buckets counts the samples per bound: element i those ≤
// latencyBucketsMs[i] milliseconds and above the bound before, the last
// the overflow.
func (h *Histogram) buckets() []uint64 {
	out := make([]uint64, len(latencyBucketsMs)+1)
	if f := h.fold(); f != nil {
		for v, c := range f.counts {
			out[sort.SearchFloat64s(latencyBucketsMs, millis(v))] += c
		}
	}
	return out
}

// sample fills in a snapshot sample's histogram state.
func (h *Histogram) sample(sm *Sample) {
	sm.Count = h.n
	sm.Sum = h.sumMs
	sm.Bounds = latencyBucketsMs
	sm.Buckets = h.buckets()
}

// A Table is the instrument families one type of object carries: one
// column per family, each naming it, giving its kind and reading it
// from the object. Declare a table once, at package level, and Register
// each object as one row, labelled with that object's label values; a
// snapshot reads every column of every row. T is a pointer or interface
// type, so a row holds the object without copying it.
type Table[T any] struct{ table }

// table is a Table's columns, whatever its object type.
type table struct {
	cols []column
}

// column is one family of a table: its name, its kind, the labels it
// adds after its row's (say, the output of one of a switch's drop
// counters) and how to read its value from a row's object.
type column struct {
	name   string
	kind   Kind
	labels []Label
	read   func(obj any, sm *Sample)
	// single marks the one column of a table the registry makes for a
	// family registered counter by counter (Registry.Counter), whose
	// objects are the counters themselves.
	single bool
}

// Column is one family of a Table[T].
//
// CounterOf, GaugeOf and HistogramOf run once per column, at package
// initialisation, and are not inlined: inlined, every call site
// compiles its own copy of the reader closure, which made the
// benchmark's binary ≈ 40 kB larger.
type Column[T any] struct{ c column }

// CounterOf is a counter family that read takes from each object.
// labels, if any, follow the row's in every sample of the family.
//
//go:noinline
func CounterOf[T any](name string, read func(T) uint64, labels ...Label) Column[T] {
	return Column[T]{column{name: name, kind: KindCounter, labels: labels,
		read: func(obj any, sm *Sample) { sm.Value = float64(read(obj.(T))) }}}
}

// GaugeOf is a gauge family that read takes from each object.
//
//go:noinline
func GaugeOf[T any](name string, read func(T) float64, labels ...Label) Column[T] {
	return Column[T]{column{name: name, kind: KindGauge, labels: labels,
		read: func(obj any, sm *Sample) { sm.Value = read(obj.(T)) }}}
}

// HistogramOf is a histogram family: read returns each object's
// histogram.
//
//go:noinline
func HistogramOf[T any](name string, read func(T) *Histogram, labels ...Label) Column[T] {
	return Column[T]{column{name: name, kind: KindHistogram, labels: labels,
		read: func(obj any, sm *Sample) { read(obj.(T)).sample(sm) }}}
}

// NewTable returns a table of the given columns. Each family name
// belongs to one table: a registry panics if two tables name the same
// family.
func NewTable[T any](cols ...Column[T]) *Table[T] {
	t := &Table[T]{}
	for _, c := range cols {
		t.cols = append(t.cols, c.c)
	}
	return t
}

// Register adds obj to reg as one row carrying labels; every family of
// the table reads it from then on. Registering a row again under the
// same labels is a no-op: the first object stays. No-op on a nil
// registry. The row keeps labels, so the caller must not change it
// afterwards; objects registered under one label set can share it.
func (t *Table[T]) Register(reg *Registry, obj T, labels ...Label) {
	if reg == nil {
		return
	}
	reg.add(&t.table, obj, labels)
}

// single returns the one-column table of a family registered counter
// by counter. It reads the *Counter a row holds.
func single(name string) *table {
	return &table{cols: []column{{name: name, kind: KindCounter, single: true,
		read: func(obj any, sm *Sample) { sm.Value = float64(obj.(*Counter).v) }}}}
}

// row is one registered object, in 64 bytes: its table, the object its
// columns read, its labels, and next, the row registered before it
// whose identity hashes alike.
type row struct {
	tab    *table
	obj    any
	labels []Label
	next   *row
}

// Registry holds every registered row plus the event tracer. All
// methods are nil-receiver safe: with a nil registry they return
// working, unregistered instruments, so instrumented packages never
// need to branch on "is observability enabled".
type Registry struct {
	clock Clock
	rows  []*row
	// byHash holds, per identity hash (hashKey of the table's first
	// family and the row's labels), the chain of rows whose identities
	// hash to it, newest first.
	byHash map[uint64]*row
	// families maps each family name to the table that reads it.
	families map[string]*table
	samples  int // columns over all rows: a snapshot's length
	tracer   *Tracer
}

// New returns an empty registry stamping snapshots and events with
// clock's virtual time.
func New(clock Clock) *Registry {
	return &Registry{
		clock:    clock,
		byHash:   make(map[uint64]*row),
		families: make(map[string]*table),
		tracer:   newTracer(clock, DefaultTraceCap),
	}
}

// Now returns the registry clock's current virtual time (0 with a nil
// registry or clock).
func (r *Registry) Now() occam.Time {
	if r == nil || r.clock == nil {
		return 0
	}
	return r.clock.Now()
}

// Tracer returns the event tracer (nil with a nil registry, which is
// itself safe to Emit on).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// FNV-1a, 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// hashKey is the FNV-1a of key(name, labels), computed without building
// the string.
func hashKey(name string, labels []Label) uint64 {
	h := fnvString(fnvOffset, name)
	for _, l := range labels {
		h = fnvString((h^'|')*fnvPrime, l.Key)
		h = fnvString((h^'=')*fnvPrime, l.Value)
	}
	return h
}

// find returns t's row registered under labels, or nil.
func (r *Registry) find(t *table, labels []Label) *row {
	for w := r.byHash[hashKey(t.cols[0].name, labels)]; w != nil; w = w.next {
		if w.tab == t && slices.Equal(w.labels, labels) {
			return w
		}
	}
	return nil
}

// add returns t's row registered under labels, adding one that holds
// obj if there is none, after t has claimed its families.
func (r *Registry) add(t *table, obj any, labels []Label) *row {
	if r.families[t.cols[0].name] != t {
		r.claim(t, labels)
	}
	if w := r.find(t, labels); w != nil {
		return w
	}
	h := hashKey(t.cols[0].name, labels)
	w := &row{tab: t, obj: obj, labels: labels, next: r.byHash[h]}
	r.byHash[h] = w
	r.rows = append(r.rows, w)
	r.samples += len(t.cols)
	return w
}

// claim makes t the table of each of its families, panicking, with the
// key of the row being registered, if another table has one.
func (r *Registry) claim(t *table, labels []Label) {
	for _, c := range t.cols {
		was, ok := r.families[c.name]
		if !ok || was == t {
			continue
		}
		id := key(c.name, append(labels[:len(labels):len(labels)], c.labels...))
		if k := was.kindOf(c.name); k != c.kind {
			panic(fmt.Sprintf("obs: %s re-registered as %v, was %v", id, c.kind, k))
		}
		panic(fmt.Sprintf("obs: %s is read by two tables", id))
	}
	for _, c := range t.cols {
		r.families[c.name] = t
	}
}

// kindOf returns the kind of t's family name.
func (t *table) kindOf(name string) Kind {
	for _, c := range t.cols {
		if c.name == name {
			return c.kind
		}
	}
	return 0
}

// Counter returns the counter registered under name+labels, creating
// it if needed. On a nil registry it returns a fresh unregistered
// counter. Naming a family a table reads panics.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return NewCounter()
	}
	t := r.families[name]
	if t == nil || !t.cols[0].single {
		t = single(name)
	}
	return r.add(t, NewCounter(), labels).obj.(*Counter)
}

// Sample is one instrument's state at snapshot time.
type Sample struct {
	Name   string
	Labels []Label
	Kind   Kind

	// Value is the counter count or gauge level.
	Value float64

	// Histogram state (KindHistogram only). Sum and Bounds are in
	// milliseconds. Buckets[i] counts observations ≤ Bounds[i]; the
	// final extra element is overflow. Every sample shares one Bounds:
	// read it, never write it.
	Count   uint64
	Sum     float64
	Bounds  []float64
	Buckets []uint64
}

// labelString renders {k="v",...} or "" without labels.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ID renders the sample's full identity, e.g. `x_total{link="a-b.0"}`.
func (s Sample) ID() string { return s.Name + labelString(s.Labels) }

// Snapshot is the state of every registered instrument at one instant
// of virtual time.
type Snapshot struct {
	At      occam.Time // when the snapshot was taken
	Samples []Sample
}

// Snapshot reads every instrument. Safe to call whenever no simulation
// process is mid-step (between RunFor calls, or from a control
// process). A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{At: r.Now(), Samples: make([]Sample, 0, r.samples)}
	ids := make([]string, 0, r.samples)
	for _, w := range r.rows {
		for i := range w.tab.cols {
			c := &w.tab.cols[i]
			s.Samples = append(s.Samples, Sample{Name: c.name, Labels: w.labels, Kind: c.kind})
			sm := &s.Samples[len(s.Samples)-1] // read in place: a local would escape through read
			if len(c.labels) > 0 {
				sm.Labels = append(w.labels[:len(w.labels):len(w.labels)], c.labels...)
			}
			c.read(w.obj, sm)
			ids = append(ids, sm.ID())
		}
	}
	sort.Sort(&byID{s.Samples, ids})
	return s
}

// byID sorts samples by their rendered ID. The IDs are rendered once
// per snapshot into a scratch slice that is dropped with the sorter:
// rendering inside the comparator costs a Sprintf per label per
// comparison, and caching the strings on the registry's rows would
// keep them live for the whole run.
type byID struct {
	samples []Sample
	ids     []string
}

func (b *byID) Len() int           { return len(b.samples) }
func (b *byID) Less(i, j int) bool { return b.ids[i] < b.ids[j] }
func (b *byID) Swap(i, j int) {
	b.samples[i], b.samples[j] = b.samples[j], b.samples[i]
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
}

// Get returns the sample with the exact name and labels.
func (s Snapshot) Get(name string, labels ...Label) (Sample, bool) {
	want := key(name, labels)
	for _, sm := range s.Samples {
		if key(sm.Name, sm.Labels) == want {
			return sm, true
		}
	}
	return Sample{}, false
}

// Family returns every sample of the named family (all label sets).
func (s Snapshot) Family(name string) []Sample {
	var out []Sample
	for _, sm := range s.Samples {
		if sm.Name == name {
			out = append(out, sm)
		}
	}
	return out
}

// Total sums a family's counter/gauge values across label sets.
func (s Snapshot) Total(name string) float64 {
	var sum float64
	for _, sm := range s.Family(name) {
		sum += sm.Value
	}
	return sum
}

// Table renders the snapshot as a human-readable aligned table.
func (s Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# snapshot at %v\n", s.At)
	width := 0
	for _, sm := range s.Samples {
		if n := len(sm.ID()); n > width {
			width = n
		}
	}
	for _, sm := range s.Samples {
		switch sm.Kind {
		case KindHistogram:
			fmt.Fprintf(&b, "%-*s  %-9s n=%d sum=%.2f mean=%.2f\n",
				width, sm.ID(), sm.Kind, sm.Count, sm.Sum, safeMean(sm.Sum, sm.Count))
		case KindGauge:
			fmt.Fprintf(&b, "%-*s  %-9s %g\n", width, sm.ID(), sm.Kind, sm.Value)
		default:
			fmt.Fprintf(&b, "%-*s  %-9s %.0f\n", width, sm.ID(), sm.Kind, sm.Value)
		}
	}
	return b.String()
}

func safeMean(sum float64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Prometheus renders the snapshot in the Prometheus text exposition
// style (TYPE comments plus one line per sample; histograms expand to
// cumulative _bucket/_sum/_count lines). Virtual time is exported as
// the pandora_virtual_time_seconds gauge rather than per-line
// timestamps, which scrapers would misread as wall time.
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE pandora_virtual_time_seconds gauge\n")
	fmt.Fprintf(&b, "pandora_virtual_time_seconds %g\n", s.At.Seconds())
	lastName := ""
	for _, sm := range s.Samples {
		if sm.Name != lastName {
			fmt.Fprintf(&b, "# TYPE %s %s\n", sm.Name, sm.Kind)
			lastName = sm.Name
		}
		switch sm.Kind {
		case KindHistogram:
			var cum uint64
			for i, bound := range sm.Bounds {
				cum += sm.Buckets[i]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", sm.Name, leLabel(sm.Labels, fmt.Sprintf("%g", bound)), cum)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", sm.Name, leLabel(sm.Labels, "+Inf"), sm.Count)
			fmt.Fprintf(&b, "%s_sum%s %g\n", sm.Name, labelString(sm.Labels), sm.Sum)
			fmt.Fprintf(&b, "%s_count%s %d\n", sm.Name, labelString(sm.Labels), sm.Count)
		default:
			fmt.Fprintf(&b, "%s%s %g\n", sm.Name, labelString(sm.Labels), sm.Value)
		}
	}
	return b.String()
}

func leLabel(labels []Label, le string) string {
	all := append(append([]Label(nil), labels...), L("le", le))
	return labelString(all)
}

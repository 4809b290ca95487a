// Package obs is the unified observability layer: a registry of named
// counters, gauges and histograms stamped with *virtual* time
// (occam.Time), plus a bounded ring-buffer event tracer (see trace.go).
//
// It generalises the paper's per-process drop counters and rate-limited
// host-log reports (§3.8) into one cross-cutting substrate: every
// data-path package (atm links, clawback buffers, the mixer, the
// decoupling buffers, the allocator and the box boards) registers its
// counters here once, and a whole running simulation can be snapshotted,
// diffed and exported at any instant of virtual time.
//
// Design constraints, in order:
//
//   - Hot paths pay one pointer-chase and one integer add. An instrument
//     is a plain struct field registered once; there are no locks and no
//     atomics because the occam scheduler runs exactly one process at a
//     time (package occam's defining property).
//   - Instrumented code must not care whether anyone is watching: every
//     constructor and Emit is safe on a nil *Registry / *Tracer and
//     simply hands back an unregistered (but fully functional)
//     instrument, so unit tests of one package need no registry.
//   - Existing accessor APIs (atm.LinkStats, clawback.Stats,
//     mixer.StreamStats, ...) keep working; they are reconstructed from
//     the registered instruments.
//   - The registry is an output. Nothing in the simulation reads it
//     back: a controller reads the queues it manages through their own
//     typed methods, and only reports, assertions and the benchmark read
//     snapshots.
//
// An instrument costs what it holds: one 64-byte entry (its name, its
// labels, the source a snapshot reads and a chain link), a pointer in
// the registration-order list and one slot in a map keyed by the 64-bit
// FNV-1a hash of its identity. No key string is built or kept;
// identities whose hashes collide are chained through their entries and
// told apart by name and labels. A histogram makes its value map at its
// first fold, so one nothing has observed into holds none.
//
// Snapshots can be rendered as a human table (Table) or as
// Prometheus-style text lines (Prometheus).
package obs

import (
	"fmt"
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

// Gauge is an instantaneous value. The zero value is ready to use.
type Gauge struct {
	v float64
}

// NewGauge returns an unregistered gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the value by d (may be negative).
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// DefaultLatencyBucketsMs are histogram bounds suited to the paper's
// millisecond-scale latencies (the headline mic→speaker figure is 8 ms).
var DefaultLatencyBucketsMs = []float64{2, 4, 6, 8, 10, 15, 20, 30, 50, 100, 200, 500}

// Histogram is an exact distribution of durations: a value → count
// multiset (virtual-time delays take few distinct values, and a stream
// that plays for hours must not cost a word per block played), from
// which it reports order statistics directly and, in a Snapshot,
// bucket counts against fixed millisecond bounds. Bounds are
// upper-inclusive; one implicit overflow bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts map[time.Duration]uint64 // sample value → occurrences; nil until the first fold
	n      uint64
	sum    time.Duration
	// sumMs is the exported sum: milliseconds as a float, added up one
	// observation at a time so it reads the same whatever order the
	// multiset is later walked in.
	sumMs float64
	keys  []time.Duration // distinct values ascending; stale when shorter than counts
	// run and runN are the latest observations, runN of value run, not
	// yet added to counts: a stream in steady state repeats one delay,
	// and counting a repeat must not cost a map lookup. Every read of
	// counts folds them in first.
	run  time.Duration
	runN uint64
}

// NewHistogram returns an unregistered histogram with the given bucket
// upper bounds in milliseconds (nil selects DefaultLatencyBucketsMs).
// Bounds must be sorted ascending.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBucketsMs
	}
	return &Histogram{bounds: append([]float64(nil), bounds...)}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	if d != h.run {
		h.fold()
		h.run = d
	}
	h.runN++
	h.n++
	h.sum += d
	h.sumMs += millis(d)
}

// fold adds the pending run to counts, making the map on the first
// fold: a histogram nothing has observed into holds none.
func (h *Histogram) fold() {
	if h.runN > 0 {
		if h.counts == nil {
			h.counts = make(map[time.Duration]uint64)
		}
		h.counts[h.run] += h.runN
		h.runN = 0
	}
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
	return h.sortedKeys()[len(h.keys)-1]
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
	for left >= h.counts[keys[i]] {
		left -= h.counts[keys[i]]
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
	h.fold()
	if len(h.keys) != len(h.counts) {
		h.keys = h.keys[:0]
		for v := range h.counts {
			h.keys = append(h.keys, v)
		}
		slices.Sort(h.keys)
	}
	return h.keys
}

// buckets counts the samples per bound: element i those ≤ bounds[i]
// milliseconds and above the bound before, the last the overflow.
func (h *Histogram) buckets() []uint64 {
	h.fold()
	out := make([]uint64, len(h.bounds)+1)
	for v, c := range h.counts {
		out[sort.SearchFloat64s(h.bounds, millis(v))] += c
	}
	return out
}

// entry is one registered instrument, in 64 bytes: its identity, src,
// what a snapshot reads — a *Counter, func() uint64, *Gauge,
// func() float64 or *Histogram, which also gives its Kind — and next,
// the entry registered before it whose identity hashes alike.
type entry struct {
	name   string
	labels []Label
	src    any
	next   *entry
}

// kindOf returns the kind of instrument src reads.
func kindOf(src any) Kind {
	switch src.(type) {
	case *Counter, func() uint64:
		return KindCounter
	case *Gauge, func() float64:
		return KindGauge
	}
	return KindHistogram
}

// Registry holds every registered instrument plus the event tracer.
// All methods are nil-receiver safe: with a nil registry they return
// working, unregistered instruments, so instrumented packages never
// need to branch on "is observability enabled".
type Registry struct {
	clock   Clock
	entries []*entry
	// byHash holds, per identity hash (hashKey), the chain of entries
	// whose identities hash to it, newest first.
	byHash map[uint64]*entry
	tracer *Tracer
}

// Option configures a Registry.
type Option func(*Registry)

// WithTraceCapacity sets the event ring size (default DefaultTraceCap).
func WithTraceCapacity(n int) Option {
	return func(r *Registry) { r.tracer = newTracer(r.clock, n) }
}

// New returns an empty registry stamping snapshots and events with
// clock's virtual time.
func New(clock Clock, opts ...Option) *Registry {
	r := &Registry{
		clock:  clock,
		byHash: make(map[uint64]*entry),
		tracer: newTracer(clock, DefaultTraceCap),
	}
	for _, o := range opts {
		o(r)
	}
	return r
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

// register returns the entry registered under name+labels, adding one
// that reads src if there is none (registration is idempotent: two
// callers naming the same instrument share it). Naming an instrument
// again as another kind panics.
func (r *Registry) register(name string, labels []Label, src any) *entry {
	h := hashKey(name, labels)
	for e := r.byHash[h]; e != nil; e = e.next {
		if e.name != name || !slices.Equal(e.labels, labels) {
			continue
		}
		if was, is := kindOf(e.src), kindOf(src); was != is {
			panic(fmt.Sprintf("obs: %s re-registered as %v, was %v", key(name, labels), is, was))
		}
		return e
	}
	e := &entry{name: name, labels: labels, src: src, next: r.byHash[h]}
	r.byHash[h] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter returns the counter registered under name+labels, creating
// it if needed. On a nil registry it returns a fresh unregistered
// counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return NewCounter()
	}
	c, ok := r.register(name, labels, NewCounter()).src.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: %s registered as a func-backed counter", key(name, labels)))
	}
	return c
}

// RegisterCounter registers an existing counter handle (idempotent;
// no-op on a nil registry). Used by packages that create their
// instruments before a registry is attached.
func (r *Registry) RegisterCounter(name string, c *Counter, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, labels, c)
}

// CounterFunc registers a read-callback counter over an existing plain
// struct field — the cheapest possible bridging for hot-path stats
// that are already maintained elsewhere. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, labels, fn)
}

// Gauge returns the gauge registered under name+labels, creating it if
// needed. On a nil registry it returns a fresh unregistered gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return NewGauge()
	}
	g, ok := r.register(name, labels, NewGauge()).src.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: %s registered as a func-backed gauge", key(name, labels)))
	}
	return g
}

// GaugeFunc registers a read-callback gauge (e.g. a live queue depth).
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, labels, fn)
}

// Histogram returns the histogram registered under name+labels,
// creating it with the given bounds if needed (nil bounds select
// DefaultLatencyBucketsMs). On a nil registry it returns a fresh
// unregistered histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	return r.register(name, labels, NewHistogram(bounds)).src.(*Histogram)
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
	// final extra element is overflow.
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
	// At is when the snapshot was taken; Since is non-zero for deltas.
	At, Since occam.Time
	Samples   []Sample
}

// Snapshot reads every instrument. Safe to call whenever no simulation
// process is mid-step (between RunFor calls, or from a control
// process). A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{At: r.Now(), Samples: make([]Sample, 0, len(r.entries))}
	ids := make([]string, 0, len(r.entries))
	for _, e := range r.entries {
		sm := Sample{Name: e.name, Labels: e.labels}
		switch src := e.src.(type) {
		case *Counter:
			sm.Kind, sm.Value = KindCounter, float64(src.Value())
		case func() uint64:
			sm.Kind, sm.Value = KindCounter, float64(src())
		case *Gauge:
			sm.Kind, sm.Value = KindGauge, src.Value()
		case func() float64:
			sm.Kind, sm.Value = KindGauge, src()
		case *Histogram:
			sm.Kind = KindHistogram
			sm.Count = src.n
			sm.Sum = src.sumMs
			sm.Bounds = src.bounds
			sm.Buckets = src.buckets()
		}
		s.Samples = append(s.Samples, sm)
		ids = append(ids, sm.ID())
	}
	sort.Sort(&byID{s.Samples, ids})
	return s
}

// byID sorts samples by their rendered ID. The IDs are rendered once
// per snapshot into a scratch slice that is dropped with the sorter:
// rendering inside the comparator costs a Sprintf per label per
// comparison, and caching the strings on the registry entries would
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

// Delta returns a snapshot whose counters and histogram counts are the
// increase since prev (missing-in-prev samples keep their full value);
// gauges keep their current level. Since is set to prev.At.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	prevBy := make(map[string]Sample, len(prev.Samples))
	for _, sm := range prev.Samples {
		prevBy[key(sm.Name, sm.Labels)] = sm
	}
	d := Snapshot{At: s.At, Since: prev.At, Samples: make([]Sample, 0, len(s.Samples))}
	for _, sm := range s.Samples {
		p, ok := prevBy[key(sm.Name, sm.Labels)]
		if ok {
			switch sm.Kind {
			case KindCounter:
				sm.Value -= p.Value
			case KindHistogram:
				sm.Count -= p.Count
				sm.Sum -= p.Sum
				buckets := append([]uint64(nil), sm.Buckets...)
				for i := range buckets {
					if i < len(p.Buckets) {
						buckets[i] -= p.Buckets[i]
					}
				}
				sm.Buckets = buckets
			}
		}
		d.Samples = append(d.Samples, sm)
	}
	return d
}

// Table renders the snapshot as a human-readable aligned table.
func (s Snapshot) Table() string {
	var b strings.Builder
	if s.Since != 0 {
		fmt.Fprintf(&b, "# delta %v .. %v\n", s.Since, s.At)
	} else {
		fmt.Fprintf(&b, "# snapshot at %v\n", s.At)
	}
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

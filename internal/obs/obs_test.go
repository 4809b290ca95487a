package obs

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/occam"
)

// fakeClock is a settable Clock.
type fakeClock struct{ t occam.Time }

func (c *fakeClock) Now() occam.Time { return c.t }

// level is the object a gauge column reads in these tests.
type level struct{ v float64 }

// gauges returns a one-column table reading a level as gauge name.
func gauges(name string) *Table[*level] {
	return NewTable(GaugeOf(name, func(l *level) float64 { return l.v }))
}

// histograms returns a one-column table reading a histogram as family
// name.
func histograms(name string) *Table[*Histogram] {
	return NewTable(HistogramOf(name, func(h *Histogram) *Histogram { return h }))
}

func TestCounterGaugeRegistration(t *testing.T) {
	clk := &fakeClock{}
	r := New(clk)

	c := r.Counter("widgets_total", L("box", "a"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	// Different labels yield a different one.
	if c3 := r.Counter("widgets_total", L("box", "b")); c3 == c {
		t.Fatalf("different labels returned the same counter")
	}

	type queue struct {
		depth int
		raw   uint64
	}
	q := &queue{depth: 7, raw: 9}
	NewTable(
		GaugeOf("live_depth", func(q *queue) float64 { return float64(q.depth) }),
		CounterOf("raw_total", func(q *queue) uint64 { return q.raw }),
	).Register(r, q)

	clk.t = occam.Time(1e9)
	s := r.Snapshot()
	if s.At != occam.Time(1e9) {
		t.Fatalf("snapshot At = %v, want t+1s", s.At)
	}
	if sm, ok := s.Get("live_depth"); !ok || sm.Value != 7 {
		t.Fatalf("live_depth = %+v ok=%v, want 7", sm, ok)
	}
	if sm, ok := s.Get("raw_total"); !ok || sm.Value != 9 {
		t.Fatalf("raw_total = %+v ok=%v, want 9", sm, ok)
	}
	if got := s.Total("widgets_total"); got != 5 {
		t.Fatalf("family total = %g, want 5", got)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("unregistered counter does not count")
	}
	gauges("g").Register(r, &level{v: 2})
	histograms("h").Register(r, NewHistogram())
	if n := len(r.Snapshot().Samples); n != 0 {
		t.Fatalf("nil registry snapshot has %d samples", n)
	}
	r.Tracer().Emit(EvDrop, "nowhere", 0, "nothing")
	if r.Tracer().Total() != 0 {
		t.Fatalf("nil tracer recorded an event")
	}
	if r.Now() != 0 {
		t.Fatalf("nil registry Now != 0")
	}
}

// TestRegisterExistingCounter: a row reads the object it was
// registered with, counts made before and after the registration.
func TestRegisterExistingCounter(t *testing.T) {
	r := New(&fakeClock{})
	tab := NewTable(CounterOf("pre_total", (*Counter).Value))
	c := NewCounter()
	c.Add(3)
	tab.Register(r, c, L("k", "v"))
	if sm, ok := r.Snapshot().Get("pre_total", L("k", "v")); !ok || sm.Value != 3 {
		t.Fatalf("adopted counter sample = %+v ok=%v, want 3", sm, ok)
	}
	// Counts made after the registration too.
	c.Inc()
	if sm, _ := r.Snapshot().Get("pre_total", L("k", "v")); sm.Value != 4 {
		t.Fatalf("a count after registration did not show: %+v", sm)
	}
}

func TestHistogram(t *testing.T) {
	r := New(&fakeClock{})
	h := NewHistogram()
	histograms("lat_ms").Register(r, h, L("box", "a"))
	for _, d := range []time.Duration{500 * time.Microsecond, 5 * time.Millisecond, 50 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 || h.Mean() != 18500*time.Microsecond {
		t.Fatalf("count=%d mean=%v, want 3/18.5ms", h.Count(), h.Mean())
	}
	sm, ok := r.Snapshot().Get("lat_ms", L("box", "a"))
	if !ok || sm.Count != 3 || sm.Sum != 55.5 {
		t.Fatalf("histogram sample = %+v ok=%v, want count 3 sum 55.5", sm, ok)
	}
	if want := []float64{2, 4, 6, 8, 10, 15, 20, 30, 50, 100, 200, 500}; !reflect.DeepEqual(sm.Bounds, want) {
		t.Fatalf("bucket bounds = %v, want %v", sm.Bounds, want)
	}
	if want := []uint64{1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}; !reflect.DeepEqual(sm.Buckets, want) {
		t.Fatalf("bucket counts = %v, want %v", sm.Buckets, want)
	}
}

func TestExporters(t *testing.T) {
	clk := &fakeClock{t: occam.Time(1e9)}
	r := New(clk)
	r.Counter("a_total", L("link", "l0")).Add(2)
	gauges("depth").Register(r, &level{v: 3})
	h := NewHistogram()
	histograms("lat_ms").Register(r, h)
	h.Observe(5 * time.Millisecond)

	table := r.Snapshot().Table()
	for _, want := range []string{"snapshot at t+1s", `a_total{link="l0"}`, "counter", "2", "depth", "gauge", "n=1"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}

	prom := r.Snapshot().Prometheus()
	for _, want := range []string{
		"# TYPE a_total counter",
		`a_total{link="l0"} 2`,
		"# TYPE lat_ms histogram",
		`lat_ms_bucket{le="4"} 0`,
		`lat_ms_bucket{le="6"} 1`,
		`lat_ms_bucket{le="500"} 1`,
		`lat_ms_bucket{le="+Inf"} 1`,
		"lat_ms_sum 5",
		"lat_ms_count 1",
		"pandora_virtual_time_seconds 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom)
		}
	}
}

func TestTracerRing(t *testing.T) {
	clk := &fakeClock{}
	tr := newTracer(clk, 4)
	for i := 0; i < 6; i++ {
		clk.t = occam.Time(i) * occam.Time(occam.Millisecond)
		tr.Emit(EvDrop, "src", uint32(i), "r")
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(ev))
	}
	if ev[0].Stream != 2 || ev[3].Stream != 5 {
		t.Fatalf("ring window = [%d..%d], want [2..5]", ev[0].Stream, ev[3].Stream)
	}
	if tr.Total() != 6 {
		t.Fatalf("total = %d, want 6", tr.Total())
	}
	if !strings.Contains(ev[3].String(), "drop") {
		t.Fatalf("event String lacks kind: %q", ev[3].String())
	}
}

// TestSnapshotOrderIsByID: Snapshot sorts on IDs rendered once; the
// order must be the one a sort on Sample.ID() itself gives, including
// where one family name is a prefix of another, where label values
// sort differently from their quoted rendering, and across kinds.
func TestSnapshotOrderIsByID(t *testing.T) {
	r := New(&fakeClock{})
	link, latency := gauges("link"), histograms("link_latency_ms")
	byFn := NewTable(CounterOf("link_drops_total_by_fn", func(*level) uint64 { return 0 }))
	for _, box := range []string{"b10", "b2", "b", `b"q`, "a-b.0", "a"} {
		r.Counter("link_drops_total", L("link", box))
		r.Counter("link_drops", L("link", box))
		link.Register(r, &level{}, L("link", box), L("vci", "1001"))
		link.Register(r, &level{}, L("link", box), L("vci", "11"))
		latency.Register(r, NewHistogram(), L("vci", "7"), L("link", box))
		byFn.Register(r, &level{}, L("link", box))
	}
	link.Register(r, &level{})
	gauges("z_unlabelled").Register(r, &level{})
	got := r.Snapshot().Samples
	want := append([]Sample(nil), got...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].ID() < want[j].ID() })
	if len(got) != 6*6+2 {
		t.Fatalf("%d samples", len(got))
	}
	for i := range got {
		if got[i].ID() != want[i].ID() {
			t.Fatalf("sample %d is %s, a sort by ID puts %s there", i, got[i].ID(), want[i].ID())
		}
	}
}

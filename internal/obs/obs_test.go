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

func TestCounterGaugeRegistration(t *testing.T) {
	clk := &fakeClock{}
	r := New(clk)

	c := r.Counter("widgets_total", L("box", "a"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	// Same name+labels yields the same counter.
	if c2 := r.Counter("widgets_total", L("box", "a")); c2 != c {
		t.Fatalf("re-registration returned a different counter")
	}
	// Different labels yield a different one.
	if c3 := r.Counter("widgets_total", L("box", "b")); c3 == c {
		t.Fatalf("different labels returned the same counter")
	}

	g := r.Gauge("depth")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %g, want 2", got)
	}

	depth := 7
	r.GaugeFunc("live_depth", func() float64 { return float64(depth) })
	var raw uint64 = 9
	r.CounterFunc("raw_total", func() uint64 { return raw })

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
	g := r.Gauge("g")
	g.Set(2)
	h := r.Histogram("h", nil)
	h.Observe(time.Millisecond)
	r.CounterFunc("cf", func() uint64 { return 0 })
	r.GaugeFunc("gf", func() float64 { return 0 })
	r.RegisterCounter("rc", c)
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

func TestRegisterExistingCounter(t *testing.T) {
	r := New(&fakeClock{})
	c := NewCounter()
	c.Add(3)
	r.RegisterCounter("pre_total", c, L("k", "v"))
	if sm, ok := r.Snapshot().Get("pre_total", L("k", "v")); !ok || sm.Value != 3 {
		t.Fatalf("adopted counter sample = %+v ok=%v, want 3", sm, ok)
	}
	// Idempotent: a second registration keeps the first handle.
	r.RegisterCounter("pre_total", NewCounter(), L("k", "v"))
	c.Inc()
	if sm, _ := r.Snapshot().Get("pre_total", L("k", "v")); sm.Value != 4 {
		t.Fatalf("second registration replaced the counter: %+v", sm)
	}
}

func TestHistogram(t *testing.T) {
	r := New(&fakeClock{})
	h := r.Histogram("lat_ms", []float64{1, 10}, L("box", "a"))
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
	if want := []uint64{1, 1, 1}; !reflect.DeepEqual(sm.Buckets, want) {
		t.Fatalf("bucket counts = %v, want %v", sm.Buckets, want)
	}
}

func TestDelta(t *testing.T) {
	clk := &fakeClock{}
	r := New(clk)
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{10})

	c.Add(5)
	g.Set(1)
	h.Observe(3 * time.Millisecond)
	prev := r.Snapshot()

	clk.t = occam.Time(2e9)
	c.Add(7)
	g.Set(9)
	h.Observe(4 * time.Millisecond)
	d := r.Snapshot().Delta(prev)

	if d.Since != prev.At || d.At != occam.Time(2e9) {
		t.Fatalf("delta window = %v..%v", d.Since, d.At)
	}
	if sm, _ := d.Get("c_total"); sm.Value != 7 {
		t.Fatalf("counter delta = %g, want 7", sm.Value)
	}
	if sm, _ := d.Get("g"); sm.Value != 9 {
		t.Fatalf("gauge in delta = %g, want current 9", sm.Value)
	}
	if sm, _ := d.Get("h"); sm.Count != 1 || sm.Sum != 4 {
		t.Fatalf("histogram delta = %+v, want count 1 sum 4", sm)
	}
}

func TestExporters(t *testing.T) {
	clk := &fakeClock{t: occam.Time(1e9)}
	r := New(clk)
	r.Counter("a_total", L("link", "l0")).Add(2)
	r.Gauge("depth").Set(3)
	r.Histogram("lat_ms", []float64{1, 10}).Observe(5 * time.Millisecond)

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
		`lat_ms_bucket{le="1"} 0`,
		`lat_ms_bucket{le="10"} 1`,
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
	r := New(clk, WithTraceCapacity(4))
	tr := r.Tracer()
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
	for _, box := range []string{"b10", "b2", "b", `b"q`, "a-b.0", "a"} {
		r.Counter("link_drops_total", L("link", box))
		r.Counter("link_drops", L("link", box))
		r.Gauge("link", L("link", box), L("vci", "1001"))
		r.Gauge("link", L("link", box), L("vci", "11"))
		r.Histogram("link_latency_ms", nil, L("vci", "7"), L("link", box))
		r.CounterFunc("link_drops_total_by_fn", func() uint64 { return 0 }, L("link", box))
	}
	r.Gauge("link")
	r.Gauge("z_unlabelled")
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

package mixer

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestBarBeforeTheFirstDelivery: a bar on a stream the mixer has not
// heard keeps the stream's record, barred, and nothing else. Deliveries
// are discarded, its Stats read zero and it registers no row; after the
// restore its first delivery creates it, and no reactivation is counted.
func TestBarBeforeTheFirstDelivery(t *testing.T) {
	reg := obs.New(nil)
	m := New(Config{Obs: reg})
	m.SetShed(4, true)
	m.Deliver(4, seg(0, 8000, 2))
	if st := m.Stats(4); st != (StreamStats{}) {
		t.Fatalf("stats of a stream never played: %+v", st)
	}
	if _, ok := reg.Snapshot().Get("mixer_segments_total", obs.L("box", "mixer"), obs.L("stream", "4")); ok {
		t.Fatal("a barred stream registered its row before its first delivery")
	}
	m.Retire(4) // a hint for a stream with no buffer: nothing to free
	m.SetShed(4, false)
	m.Deliver(4, seg(1, 8000, 2))
	if _, mixed := m.Tick(0); mixed != 1 {
		t.Fatal("the restored stream does not play")
	}
	if st := m.Stats(4); st.Segments != 1 || st.Reactivations != 0 || m.shedDrops != 1 {
		t.Fatalf("after the restore: %d segments, %d reactivations, %d shed drops; want 1, 0, 1",
			st.Segments, st.Reactivations, m.shedDrops)
	}
	var got []string
	for _, e := range reg.Tracer().Events() {
		got = append(got, e.Detail)
	}
	if want := []string{"degrade-shed", "stream created"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("trace %q, want %q", got, want)
	}
}

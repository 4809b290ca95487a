package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestTrackerBasics(t *testing.T) {
	tr := NewTracker("lat")
	if tr.Min() != 0 || tr.Max() != 0 || tr.Mean() != 0 || tr.Percentile(50) != 0 {
		t.Fatal("empty tracker not zero")
	}
	for _, d := range []time.Duration{3, 1, 4, 1, 5} {
		tr.Add(d * time.Millisecond)
	}
	if tr.Count() != 5 {
		t.Fatalf("Count = %d", tr.Count())
	}
	if tr.Min() != time.Millisecond || tr.Max() != 5*time.Millisecond {
		t.Fatalf("min=%v max=%v", tr.Min(), tr.Max())
	}
	if tr.Mean() != 2800*time.Microsecond {
		t.Fatalf("mean=%v", tr.Mean())
	}
	if tr.Jitter() != 4*time.Millisecond {
		t.Fatalf("jitter=%v", tr.Jitter())
	}
	if tr.String() == "" {
		t.Fatal("empty String")
	}
}

func TestTrackerPercentiles(t *testing.T) {
	tr := NewTracker("p")
	for i := 1; i <= 100; i++ {
		tr.Add(time.Duration(i) * time.Millisecond)
	}
	if p := tr.Percentile(0); p != time.Millisecond {
		t.Fatalf("p0=%v", p)
	}
	if p := tr.Percentile(100); p != 100*time.Millisecond {
		t.Fatalf("p100=%v", p)
	}
	p50 := tr.Percentile(50)
	if p50 < 49*time.Millisecond || p50 > 51*time.Millisecond {
		t.Fatalf("p50=%v", p50)
	}
}

func TestTrackerAddAfterSortStaysCorrect(t *testing.T) {
	tr := NewTracker("x")
	tr.Add(5 * time.Millisecond)
	_ = tr.Max() // forces sort
	tr.Add(time.Millisecond)
	if tr.Min() != time.Millisecond {
		t.Fatal("sample added after sort was lost")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("delay")
	if _, ok := s.At(0); ok {
		t.Fatal("empty series has a value")
	}
	s.Add(0, 20)
	s.Add(10*time.Second, 10)
	s.Add(20*time.Second, 4)
	if v, ok := s.At(5 * time.Second); !ok || v != 20 {
		t.Fatalf("At(5s) = %v,%v", v, ok)
	}
	if v, _ := s.At(10 * time.Second); v != 10 {
		t.Fatalf("At(10s) = %v", v)
	}
	if v, _ := s.At(time.Hour); v != 4 {
		t.Fatalf("At(1h) = %v", v)
	}
}

func TestSeriesDownsample(t *testing.T) {
	s := NewSeries("d")
	for i := 0; i < 1000; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	pts := s.Downsample(11)
	if len(pts) != 11 {
		t.Fatalf("downsample to %d points", len(pts))
	}
	if pts[0].Value != 0 || pts[10].Value != 999 {
		t.Fatalf("endpoints %v %v", pts[0], pts[10])
	}
	if got := s.Downsample(2000); len(got) != 1000 {
		t.Fatal("oversized downsample changed data")
	}
	if got := s.Downsample(0); len(got) != 1000 {
		t.Fatal("zero downsample changed data")
	}
}

// sliceTracker is the reference the multiset Tracker must agree with:
// keep every sample, sort, index.
type sliceTracker []time.Duration

func (s sliceTracker) sorted() []time.Duration {
	out := append([]time.Duration(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s sliceTracker) mean() time.Duration {
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

func (s sliceTracker) percentile(p float64) time.Duration {
	rank := int(p / 100 * float64(len(s)-1))
	rank = max(0, min(rank, len(s)-1))
	return s.sorted()[rank]
}

func TestTrackerAgreesWithSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draws := map[string]func() time.Duration{
		"random":   func() time.Duration { return time.Duration(rng.Int63n(int64(time.Second))) - 100*time.Millisecond },
		"repeated": func() time.Duration { return time.Duration(2+rng.Intn(5)*rng.Intn(2)) * time.Millisecond },
	}
	for name, draw := range draws {
		tr := NewTracker(name)
		var ref sliceTracker
		for i := 0; i < 3000; i++ {
			d := draw()
			tr.Add(d)
			ref = append(ref, d)
			if i%500 != 499 && i > 3 { // query between adds, and on tiny sets
				continue
			}
			s := ref.sorted()
			if tr.Count() != len(ref) || tr.Min() != s[0] || tr.Max() != s[len(s)-1] ||
				tr.Mean() != ref.mean() || tr.Jitter() != s[len(s)-1]-s[0] {
				t.Fatalf("%s after %d: n=%d min=%v max=%v mean=%v jitter=%v, reference n=%d min=%v max=%v mean=%v",
					name, i+1, tr.Count(), tr.Min(), tr.Max(), tr.Mean(), tr.Jitter(), len(ref), s[0], s[len(s)-1], ref.mean())
			}
			for _, p := range []float64{-5, 0, 0.1, 1, 25, 50, 75, 90, 99, 99.9, 100, 140} {
				if got, want := tr.Percentile(p), ref.percentile(p); got != want {
					t.Fatalf("%s after %d: p%v = %v, reference %v", name, i+1, p, got, want)
				}
			}
			want := fmt.Sprintf("%s: n=%d min=%v mean=%v p99=%v max=%v",
				name, len(ref), s[0], ref.mean(), ref.percentile(99), s[len(s)-1])
			if tr.String() != want {
				t.Fatalf("String() = %q, reference %q", tr.String(), want)
			}
		}
	}
}

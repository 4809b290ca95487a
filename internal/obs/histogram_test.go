package obs

import (
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/occam"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, d := range []time.Duration{3, 1, 4, 1, 5} {
		h.Observe(d * time.Millisecond)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != time.Millisecond || h.Max() != 5*time.Millisecond {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
	if h.Mean() != 2800*time.Microsecond {
		t.Fatalf("mean=%v", h.Mean())
	}
	if h.Jitter() != 4*time.Millisecond {
		t.Fatalf("jitter=%v", h.Jitter())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if p := h.Percentile(0); p != time.Millisecond {
		t.Fatalf("p0=%v", p)
	}
	if p := h.Percentile(100); p != 100*time.Millisecond {
		t.Fatalf("p100=%v", p)
	}
	p50 := h.Percentile(50)
	if p50 < 49*time.Millisecond || p50 > 51*time.Millisecond {
		t.Fatalf("p50=%v", p50)
	}
}

func TestHistogramObserveAfterSortStaysCorrect(t *testing.T) {
	h := NewHistogram()
	h.Observe(5 * time.Millisecond)
	_ = h.Max() // forces sort
	h.Observe(time.Millisecond)
	if h.Min() != time.Millisecond {
		t.Fatal("sample observed after sort was lost")
	}
}

// sliceTracker is the reference the multiset Histogram must agree
// with: keep every sample, sort, index.
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

// buckets is the per-observation bucketing obs.Histogram did before it
// kept a multiset: one binary search of the bounds per sample.
func (s sliceTracker) buckets(bounds []float64) []uint64 {
	out := make([]uint64, len(bounds)+1)
	for _, d := range s {
		out[sort.SearchFloat64s(bounds, float64(d)/float64(time.Millisecond))]++
	}
	return out
}

// TestHistogramAgreesWithSortedSlice checks every order statistic and
// the snapshot's buckets against the keep-everything reference, on
// five seeds of widely spread and of heavily repeated durations, and
// of runs of one value (a stream in steady state) read often, both
// inside a run and where one ends.
func TestHistogramAgreesWithSortedSlice(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var run time.Duration
		runLeft := 0
		draws := map[string]func() time.Duration{
			"random": func() time.Duration { return time.Duration(rng.Int63n(int64(time.Second))) - 100*time.Millisecond },
			// Whole milliseconds, so samples land exactly on bucket bounds.
			"repeated": func() time.Duration { return time.Duration(2+rng.Intn(5)*rng.Intn(2)) * time.Millisecond },
			// Runs of 1–40 equal values; a value may recur after others.
			"runs": func() time.Duration {
				if runLeft == 0 {
					runLeft = 1 + rng.Intn(40)
					run = time.Duration(rng.Intn(2)) + time.Duration(2*(1+rng.Intn(5)))*time.Millisecond
				}
				runLeft--
				return run
			},
		}
		for name, draw := range draws {
			r := New(&fakeClock{})
			h := NewHistogram()
			histograms("h").Register(r, h)
			var ref sliceTracker
			for i := 0; i < 3000; i++ {
				d := draw()
				h.Observe(d)
				ref = append(ref, d)
				// Query between observations, on tiny sets, and every 23rd
				// observation of the runs.
				if i%500 != 499 && i > 3 && (name != "runs" || i%23 != 0) {
					continue
				}
				s := ref.sorted()
				if h.Count() != len(ref) || h.Min() != s[0] || h.Max() != s[len(s)-1] ||
					h.Mean() != ref.mean() || h.Jitter() != s[len(s)-1]-s[0] {
					t.Fatalf("seed %d %s after %d: n=%d min=%v max=%v mean=%v jitter=%v, reference n=%d min=%v max=%v mean=%v",
						seed, name, i+1, h.Count(), h.Min(), h.Max(), h.Mean(), h.Jitter(), len(ref), s[0], s[len(s)-1], ref.mean())
				}
				for _, p := range []float64{-5, 0, 0.1, 1, 25, 50, 75, 90, 99, 99.9, 100, 140} {
					if got, want := h.Percentile(p), ref.percentile(p); got != want {
						t.Fatalf("seed %d %s after %d: p%v = %v, reference %v", seed, name, i+1, p, got, want)
					}
				}
				sm, _ := r.Snapshot().Get("h")
				if want := ref.buckets(latencyBucketsMs); !reflect.DeepEqual(sm.Buckets, want) || sm.Count != uint64(len(ref)) {
					t.Fatalf("seed %d %s after %d: buckets %v count %d, reference %v count %d",
						seed, name, i+1, sm.Buckets, sm.Count, want, len(ref))
				}
			}
		}
	}
}

// playoutSamples draws latencies shaped like box.recordPlayout's: an
// 8 ms floor plus whole blocks and sub-millisecond jitter, with a rare
// late burst — values whose millisecond form is not exact in a float.
func playoutSamples(seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, 4000)
	for i := range out {
		d := 8*time.Millisecond + time.Duration(rng.Intn(4))*2*time.Millisecond + time.Duration(rng.Intn(1_000_000))
		if rng.Intn(50) == 0 {
			d += time.Duration(rng.Intn(600)) * time.Millisecond
		}
		out[i] = d
	}
	return out
}

// TestHistogramExportsUnchanged renders two histograms fed
// playoutSamples and compares with testdata/histogram_*.golden, written
// at commit 0bc3240 by the float-millisecond histogram from the same
// samples: sum=, mean= and the %g _sum must not move by an ulp.
func TestHistogramExportsUnchanged(t *testing.T) {
	r := New(&fakeClock{t: occam.Time(3 * time.Second)})
	playout := histograms("audio_playout_latency_ms")
	for i, box := range []string{"a", "b"} {
		h := NewHistogram()
		playout.Register(r, h, L("box", box))
		for _, lat := range playoutSamples(int64(16 + i)) {
			h.Observe(lat)
		}
	}
	s := r.Snapshot()
	for path, got := range map[string]string{
		"testdata/histogram_table.golden": s.Table(),
		"testdata/histogram_prom.golden":  s.Prometheus(),
	} {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs; got:\n%s", path, got)
		}
	}
}

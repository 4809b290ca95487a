package obs

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
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

// percentile is the nearest-rank percentile of s, which is sorted.
func (s sliceTracker) percentile(p float64) time.Duration {
	rank := int(p / 100 * float64(len(s)-1))
	rank = max(0, min(rank, len(s)-1))
	return s[rank]
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

// sumMs is the exported sum the way Observe adds it up: one
// observation at a time, in order.
func (s sliceTracker) sumMs() float64 {
	var sum float64
	for _, d := range s {
		sum += millis(d)
	}
	return sum
}

// agreesWith compares every read of h, a row of r registered as "h",
// with the reference: Count, Min, Max, Mean, Jitter, percentiles, and
// the snapshot's count, sum and buckets. It returns what differs, or "".
func (s sliceTracker) agreesWith(h *Histogram, r *Registry, percentiles ...float64) string {
	if len(s) == 0 {
		if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
			return fmt.Sprintf("empty: n=%d min=%v max=%v mean=%v p50=%v", h.Count(), h.Min(), h.Max(), h.Mean(), h.Percentile(50))
		}
	} else {
		o := sliceTracker(s.sorted())
		if h.Count() != len(s) || h.Min() != o[0] || h.Max() != o[len(o)-1] ||
			h.Mean() != s.mean() || h.Jitter() != o[len(o)-1]-o[0] {
			return fmt.Sprintf("n=%d min=%v max=%v mean=%v jitter=%v, reference n=%d min=%v max=%v mean=%v",
				h.Count(), h.Min(), h.Max(), h.Mean(), h.Jitter(), len(s), o[0], o[len(o)-1], s.mean())
		}
		for _, p := range percentiles {
			if got, want := h.Percentile(p), o.percentile(p); got != want {
				return fmt.Sprintf("p%v = %v, reference %v", p, got, want)
			}
		}
	}
	sm, _ := r.Snapshot().Get("h")
	if want := s.buckets(latencyBucketsMs); !reflect.DeepEqual(sm.Buckets, want) ||
		sm.Count != uint64(len(s)) || sm.Sum != s.sumMs() {
		return fmt.Sprintf("buckets %v count %d sum %v, reference %v count %d sum %v",
			sm.Buckets, sm.Count, sm.Sum, want, len(s), s.sumMs())
	}
	return ""
}

// TestHistogramAgreesWithSortedSlice checks every order statistic and
// the snapshot's buckets and sum against the keep-everything reference,
// on five seeds of widely spread and of heavily repeated durations, of
// runs of one value (a stream in steady state) read often, both inside
// a run and where one ends, and of sequences cycling through 1 to 6
// distinct values (a mixer's streams' playout delays, fewer and more
// than the histogram counts in place) read at random points.
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
		for k := 1; k <= 6; k++ {
			// k distinct values, every one of them on a bucket bound or a
			// nanosecond past one, taken in turn; one in ten draws takes
			// a random one of them out of turn.
			vals := make([]time.Duration, k)
			for j := range vals {
				vals[j] = time.Duration(2*(j+1))*time.Millisecond + time.Duration(rng.Intn(2))
			}
			next := 0
			draws[fmt.Sprintf("cycle%d", k)] = func() time.Duration {
				if rng.Intn(10) == 0 {
					return vals[rng.Intn(k)]
				}
				next = (next + 1) % k
				return vals[next]
			}
		}
		for name, draw := range draws {
			reads := rand.New(rand.NewSource(seed))
			r := New(&fakeClock{})
			h := NewHistogram()
			histograms("h").Register(r, h)
			var ref sliceTracker
			for i := 0; i < 3000; i++ {
				d := draw()
				h.Observe(d)
				ref = append(ref, d)
				// Query between observations, on tiny sets, every 23rd
				// observation of the runs, and one in 29 of the cycles.
				switch {
				case strings.HasPrefix(name, "cycle"):
					if reads.Intn(29) != 0 {
						continue
					}
				case i%500 != 499 && i > 3 && (name != "runs" || i%23 != 0):
					continue
				}
				if diff := ref.agreesWith(h, r, -5, 0, 0.1, 1, 25, 50, 75, 90, 99, 99.9, 100, 140); diff != "" {
					t.Fatalf("seed %d %s after %d: %s", seed, name, i+1, diff)
				}
			}
		}
	}
}

// TestHistogramSlotCountSaturates fills a slot's count to its limit:
// the next observation of the value takes a second slot, and the
// multiset counts both.
func TestHistogramSlotCountSaturates(t *testing.T) {
	const d = 8 * time.Millisecond
	r := New(&fakeClock{})
	h := NewHistogram()
	histograms("h").Register(r, h)
	h.Observe(d)
	h.recentN[0] = math.MaxUint32 - 1
	h.n, h.sum = math.MaxUint32-1, d*(math.MaxUint32-1)
	h.Observe(d)
	h.Observe(d)
	h.Observe(2 * d)
	if h.recentN != [histRecent]uint32{math.MaxUint32, 1, 1, 0} {
		t.Fatalf("slot counts %v, want the first full and the value again in the second", h.recentN)
	}
	sm, _ := r.Snapshot().Get("h")
	if h.Count() != math.MaxUint32+2 || h.Percentile(99) != d || h.Max() != 2*d || sm.Buckets[3] != math.MaxUint32+1 || sm.Buckets[6] != 1 {
		t.Fatalf("count %d p99 %v max %v buckets %v", h.Count(), h.Percentile(99), h.Max(), sm.Buckets)
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

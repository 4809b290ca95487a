// Package metrics provides the measurement instruments used by the
// experiments: latency/jitter trackers and time-series recorders for
// figure-style output.
package metrics

import (
	"fmt"
	"slices"
	"time"
)

// Tracker accumulates duration samples and reports order statistics.
// It stores the samples as a multiset: virtual-time delays take few
// distinct values, and a stream that plays for hours must not cost a
// word per block played.
type Tracker struct {
	name   string
	counts map[time.Duration]int // sample value → occurrences
	n      int
	sum    time.Duration
	keys   []time.Duration // distinct values ascending; stale when shorter than counts
}

// NewTracker returns an empty tracker.
func NewTracker(name string) *Tracker { return &Tracker{name: name} }

// Add records one sample.
func (t *Tracker) Add(d time.Duration) {
	if t.counts == nil {
		t.counts = make(map[time.Duration]int)
	}
	t.counts[d]++
	t.n++
	t.sum += d
}

// Count returns the number of samples.
func (t *Tracker) Count() int { return t.n }

// Min returns the smallest sample (0 if empty).
func (t *Tracker) Min() time.Duration {
	if t.n == 0 {
		return 0
	}
	return t.sortedKeys()[0]
}

// Max returns the largest sample (0 if empty).
func (t *Tracker) Max() time.Duration {
	if t.n == 0 {
		return 0
	}
	return t.sortedKeys()[len(t.keys)-1]
}

// Mean returns the average sample (0 if empty).
func (t *Tracker) Mean() time.Duration {
	if t.n == 0 {
		return 0
	}
	return t.sum / time.Duration(t.n)
}

// Percentile returns the p'th percentile (0 ≤ p ≤ 100) by the
// nearest-rank method.
func (t *Tracker) Percentile(p float64) time.Duration {
	if t.n == 0 {
		return 0
	}
	rank := int(p / 100 * float64(t.n-1))
	if rank < 0 {
		rank = 0
	}
	if rank >= t.n {
		rank = t.n - 1
	}
	// Walk to the sample at position rank of the sorted samples.
	keys, i := t.sortedKeys(), 0
	for rank >= t.counts[keys[i]] {
		rank -= t.counts[keys[i]]
		i++
	}
	return keys[i]
}

// Jitter returns max − min: the peak-to-peak delay variation, the
// quantity the clawback buffer has to absorb.
func (t *Tracker) Jitter() time.Duration { return t.Max() - t.Min() }

// sortedKeys returns the distinct sample values in ascending order,
// rebuilding the list if a new value has arrived since the last call
// (distinct values are only ever added).
func (t *Tracker) sortedKeys() []time.Duration {
	if len(t.keys) != len(t.counts) {
		t.keys = t.keys[:0]
		for v := range t.counts {
			t.keys = append(t.keys, v)
		}
		slices.Sort(t.keys)
	}
	return t.keys
}

// String summarises the tracker in a table-row-friendly form.
func (t *Tracker) String() string {
	return fmt.Sprintf("%s: n=%d min=%v mean=%v p99=%v max=%v",
		t.name, t.Count(), t.Min(), t.Mean(), t.Percentile(99), t.Max())
}

// Point is one (time, value) sample of a series.
type Point struct {
	At    time.Duration
	Value float64
}

// Series records a named time series — the data behind the
// figure-style outputs (clawback delay vs time, muting factor vs
// time).
type Series struct {
	Name   string
	Points []Point
}

// NewSeries returns an empty series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample.
func (s *Series) Add(at time.Duration, v float64) {
	s.Points = append(s.Points, Point{At: at, Value: v})
}

// At returns the value in force at time at (the most recent sample
// not after it); ok is false before the first sample.
func (s *Series) At(at time.Duration) (float64, bool) {
	v, ok := 0.0, false
	for _, p := range s.Points {
		if p.At > at {
			break
		}
		v, ok = p.Value, true
	}
	return v, ok
}

// Downsample returns at most n points, evenly spaced, always
// including the first and last — enough to print a recognisable
// figure as text.
func (s *Series) Downsample(n int) []Point {
	if n <= 0 || len(s.Points) <= n {
		return s.Points
	}
	out := make([]Point, 0, n)
	step := float64(len(s.Points)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, s.Points[int(float64(i)*step)])
	}
	return out
}

package experiment

import "time"

// Point is one (time, value) sample of a series.
type Point struct {
	At    time.Duration
	Value float64
}

// Series records a named time series — the data behind the
// figure-style outputs (clawback delay vs time, muting factor vs
// time), which the tables print downsampled.
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

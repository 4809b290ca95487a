package experiment

import (
	"slices"
	"testing"
	"time"
)

func TestSeries(t *testing.T) {
	s := NewSeries("delay")
	if s.Name != "delay" || len(s.Points) != 0 {
		t.Fatalf("new series %+v", s)
	}
	s.Add(0, 20)
	s.Add(10*time.Second, 10)
	s.Add(20*time.Second, 4)
	want := []Point{{0, 20}, {10 * time.Second, 10}, {20 * time.Second, 4}}
	if !slices.Equal(s.Points, want) {
		t.Fatalf("points %v, want %v", s.Points, want)
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

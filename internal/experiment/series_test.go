package experiment

import (
	"testing"
	"time"
)

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

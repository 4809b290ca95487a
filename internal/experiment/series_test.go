package experiment

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/golden"
)

// TestSeriesGolden pins E5's and E8's series at full resolution against
// testdata/NAME.golden: the header, then one line a point, its time in
// seconds times perSecond and its value, tab-separated in format. The two
// goldens are the series cmd/pandora-trace printed, recorded at commit
// 0bc3240.
func TestSeriesGolden(t *testing.T) {
	_, clawback := E5()
	_, muting := E8()
	for _, c := range []struct {
		name, header string
		s            *Series
		perSecond    float64
		format       string
	}{
		{"clawback", "# seconds\tjitter-correction-ms", clawback, 1, "%.1f\t%.1f"},
		{"muting", "# ms\tmute-factor", muting, 1000, "%.1f\t%.2f"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			sb.WriteString(c.header + "\n")
			for _, p := range c.s.Points {
				fmt.Fprintf(&sb, c.format+"\n", p.At.Seconds()*c.perSecond, p.Value)
			}
			golden.Check(t, "testdata/"+c.name+".golden", sb.String())
		})
	}
}

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

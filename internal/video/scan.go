package video

import (
	"time"

	"repro/internal/occam"
)

// Scan models the raster position of a continuously writing camera or
// continuously reading display controller: line L is touched once per
// frame period, in order. Both tear-avoidance decisions in the paper
// — timing framestore reads against the camera (§3.6) and timing
// display-buffer copies against the scan, "copying frames both in
// front of and behind the scan if necessary" — reduce to the same
// question: when can I touch this row range without colliding with
// the raster?
type Scan struct {
	Lines  int
	Period time.Duration // one full frame scan
}

// LineAt returns which line the raster is on at time t.
func (s Scan) LineAt(t occam.Time) int {
	if s.Lines <= 0 || s.Period <= 0 {
		return 0
	}
	inFrame := int64(t) % int64(s.Period)
	return int(inFrame * int64(s.Lines) / int64(s.Period))
}

// lineTime returns when the raster next reaches the given line at or
// after t.
func (s Scan) lineTime(t occam.Time, line int) occam.Time {
	perLine := int64(s.Period) / int64(s.Lines)
	frameStart := int64(t) - int64(t)%int64(s.Period)
	at := frameStart + int64(line)*perLine
	if occam.Time(at) < t {
		at += int64(s.Period)
	}
	return occam.Time(at)
}

// SafeReadStart returns the earliest time ≥ now at which rows
// [r.Y, r.Y+r.H) can be accessed for d without the raster entering
// them: either entirely behind the scan (raster already past the
// rectangle and won't wrap back during the access) or in front of it
// (access completes before the raster arrives).
//
// A rectangle covering (nearly) every line has no safe window — the
// hardware read blocks of §3.6 were sub-rectangles for exactly this
// reason; callers must split tall accesses into bands. After a
// bounded search SafeReadStart gives up and returns now (the caller
// accepted the tear risk by asking).
func (s Scan) SafeReadStart(now occam.Time, r Rect, d time.Duration) occam.Time {
	if s.Lines <= 0 || s.Period <= 0 {
		return now
	}
	perLine := int64(s.Period) / int64(s.Lines)
	attempts := 0
	for t := now; ; {
		if attempts++; attempts > 16 {
			return now
		}
		cur := s.LineAt(t)
		switch {
		case cur >= r.Y+r.H:
			// Behind the scan: safe if we finish before the raster
			// wraps around to the rectangle top.
			wrap := s.lineTime(t, 0).Add(time.Duration(int64(r.Y) * perLine))
			if t.Add(d) <= wrap {
				return t
			}
			// Wait for the wrap to pass the rectangle instead.
			t = s.lineTime(t, r.Y+r.H)
		case cur < r.Y:
			// In front of the scan: safe if we finish before the
			// raster reaches the rectangle top.
			arrive := s.lineTime(t, r.Y)
			if t.Add(d) <= arrive {
				return t
			}
			t = s.lineTime(t, r.Y+r.H)
		default:
			// The raster is inside the rectangle: wait for it to
			// leave.
			t = s.lineTime(t, r.Y+r.H)
		}
	}
}

package video

import (
	"fmt"
	"time"
)

// FullRate is the camera frame rate: 25 Hz (§3.6).
const FullRate = 25

// FramePeriod is the camera frame interval: 40 ms.
const FramePeriod = time.Second / FullRate

// Rate is a stream frame rate expressed as a fraction of the full
// 25 Hz rate: "For example, 2/5 gives an average of 10 frames per
// second."
type Rate struct {
	Num, Den int
}

func (r Rate) String() string { return fmt.Sprintf("%d/%d", r.Num, r.Den) }

// Valid reports whether the rate is a proper fraction ≤ 1.
func (r Rate) Valid() bool {
	return r.Num > 0 && r.Den > 0 && r.Num <= r.Den
}

// Take reports whether camera frame number n (0-based) should be
// captured for this stream. The selection is the evenest possible
// spread (Bresenham): exactly Num frames of every Den are taken.
func (r Rate) Take(n int) bool {
	if !r.Valid() || n < 0 {
		return false
	}
	return (n+1)*r.Num/r.Den > n*r.Num/r.Den
}

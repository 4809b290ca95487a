package faultinject

import (
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/occam"
)

func schedule(seed uint64, n int) []atm.FaultAction {
	l := NewLink(LinkConfig{
		BurstEnter:   0.05,
		BurstLen:     3,
		Corrupt:      0.05,
		Duplicate:    0.05,
		JitterMean:   time.Millisecond,
		JitterStddev: time.Millisecond,
		Seed:         seed,
	})
	out := make([]atm.FaultAction, n)
	for i := range out {
		out[i] = l.OnMessage(occam.Time(i)*occam.Time(time.Millisecond), 1000, 1024)
	}
	return out
}

// The defining property: the same seed replays the exact same fault
// schedule, a different seed gives a different one.
func TestLinkScheduleDeterministic(t *testing.T) {
	a, b := schedule(7, 2000), schedule(7, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at message %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := schedule(8, 2000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 2000-message schedules")
	}
}

func TestBurstsAreBursts(t *testing.T) {
	l := NewLink(LinkConfig{BurstEnter: 0.01, BurstLen: 4, Seed: 3})
	drops, runs, inRun := 0, 0, false
	for i := 0; i < 20000; i++ {
		act := l.OnMessage(0, 1, 512)
		if act.Drop {
			drops++
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	if drops == 0 || runs == 0 {
		t.Fatalf("no bursts fired: drops=%d runs=%d", drops, runs)
	}
	if mean := float64(drops) / float64(runs); mean < 2 {
		t.Fatalf("bursts too short to be correlated loss: mean run %.2f", mean)
	}
}

func TestStallUntil(t *testing.T) {
	l := NewLink(LinkConfig{
		Stalls:     []Window{{From: 10 * time.Millisecond, To: 20 * time.Millisecond}},
		StallEvery: time.Second,
		StallFor:   100 * time.Millisecond,
	})
	at := func(d time.Duration) occam.Time { return occam.Time(d) }
	if got := l.StallUntil(at(15 * time.Millisecond)); got != at(20*time.Millisecond) {
		t.Fatalf("window stall: got %v", got)
	}
	if got := l.StallUntil(at(1030 * time.Millisecond)); got != at(1100*time.Millisecond) {
		t.Fatalf("periodic stall: got %v", got)
	}
	if got := l.StallUntil(at(500 * time.Millisecond)); got != 0 {
		t.Fatalf("no stall expected mid-period: got %v", got)
	}
}

// TestSpecLinkFault: an active spec hands each link its own seeded
// fault process, confined by Target; an empty spec is inactive.
func TestSpecLinkFault(t *testing.T) {
	s := Spec{Link: LinkConfig{BurstEnter: 0.01}, Target: "a-", Seed: 42}
	if !s.Active() {
		t.Fatalf("spec not active: %+v", s)
	}
	if s.LinkFault("a-b.0") == nil {
		t.Fatal("link fault missing")
	}
	if s.LinkFault("b-a.0") != nil {
		t.Fatal("link outside the target faulted")
	}
	if DeriveSeed(42, "a-b.0") == DeriveSeed(42, "b-a.0") {
		t.Fatal("per-link seeds collide")
	}
	if (Spec{Seed: 1}).Active() {
		t.Fatal("empty spec must be inactive")
	}
}

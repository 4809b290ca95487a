// Package occam is a deterministic, virtual-time simulation of the
// Inmos transputer / Occam 2 execution environment that the Pandora
// system was built on (paper §3.1).
//
// Processes run one at a time under a virtual-time scheduler, so every
// run is exactly reproducible and experiments that span minutes of
// stream time complete in milliseconds of wall time. The goroutine that
// calls Runtime.RunUntil is the only one that runs: its dispatch loop
// gives a process its turn, the process comes back when it blocks, and
// the Go scheduler is never involved. A process keeps a stack only if
// its code needs one between turns. One started with Runtime.Go is a
// coroutine: the loop switches into it and a blocking primitive switches
// back — the transputer's cheap context switch (§3.1) as a direct
// coroutine switch. One started with Runtime.GoStep is stackless: the
// loop calls its step function, a blocking primitive arms the wait and
// returns, and a turn costs a function call. To the scheduler the two
// are the same process: same queues, priorities, timers and trace. A
// panic in a process surfaces from RunUntil in that caller.
//
// Nothing in the package is locked. A Runtime and everything hung on it
// is confined: used by one goroutine at a time — the one that builds
// the system, then the one inside RunUntil, then whoever reads the
// results — with an ordinary happens-before at each hand-over (see
// Runtime). The primitives mirror Occam:
//
//   - rendezvous channels (Chan) with blocking Send/Recv,
//   - prioritised alternation (Proc.Alt, the PRI ALT construct),
//   - microsecond-resolution timers (Proc.Sleep, Timer),
//   - two process priorities (High runs first and preempts Low CPU grants),
//   - per-transputer CPU accounting (Node, Proc.Consume),
//   - inter-transputer links with transmission delay (Link).
//
// A Runtime detects deadlock (no runnable process and no pending
// timer) and reports the blocked processes by name and state.
package occam

import (
	"fmt"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the box was
// booted. The transputer timer had a resolution of one microsecond;
// nanoseconds are used internally so that derived quantities (link
// transmission times, CPU costs) do not accumulate rounding error.
type Time int64

// Handy instants/durations.
const (
	Millisecond = time.Millisecond

	// Forever is a time later than any event in a simulation.
	Forever Time = 1<<63 - 1
)

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Millis returns t in (possibly fractional) milliseconds.
func (t Time) Millis() float64 { return float64(t) / 1e6 }

// Seconds returns t in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	return fmt.Sprintf("t+%s", time.Duration(t))
}

// Package faultinject is the deterministic fault layer: seedable
// processes that inject the failures the paper's environment suffered
// — ATM cell loss in bursts, payload corruption, duplicate delivery,
// link jitter and stalls, stuck sink channels, and board
// crash-and-restart — so the overload and recovery machinery
// (internal/degrade, the clawback buffers, the switch's shed paths)
// can be provoked on demand and regression-tested.
//
// The package makes *decisions only*: a fault process answers "drop
// this message?", a Window "is this board down now?"; the component
// hosting the hook (an atm.Link, a box board, a decoupling buffer) owns
// the counters and trace events, so every injected fault is visible in the
// obs registry without this package importing any of them. Decisions
// are pure functions of a seed and the (virtual-time-deterministic)
// call sequence, so the same seed always reproduces the same fault
// schedule — the property the replay tests assert.
package faultinject

import (
	"strings"
	"time"

	"repro/internal/atm"
	"repro/internal/occam"
	"repro/internal/workload"
)

// Window is one outage interval in virtual time since the start of
// the run: [From, To).
type Window struct {
	From, To time.Duration
}

// Contains reports whether now falls inside the window.
func (w Window) Contains(now occam.Time) bool {
	t := time.Duration(now)
	return t >= w.From && t < w.To
}

// LinkConfig parameterises one link's fault process. The zero value
// injects nothing.
type LinkConfig struct {
	// BurstEnter is the per-message probability of entering a loss
	// burst; while in a burst every message is dropped (Gilbert-style
	// correlated cell loss, the pattern a congested ATM switch
	// produces).
	BurstEnter float64
	// BurstLen is the mean burst length in messages (default 4 when
	// BurstEnter is set).
	BurstLen int
	// Corrupt is the per-message probability of flagging the payload
	// corrupt; the receiver discards the segment (§3.8).
	Corrupt float64
	// Duplicate is the per-message probability of enqueuing a second
	// copy (a misbehaving switch fabric).
	Duplicate float64
	// JitterMean/JitterStddev shape extra per-message delay; negative
	// samples clamp to zero, so a zero mean with a positive stddev
	// gives a half-normal jitter tail.
	JitterMean   time.Duration
	JitterStddev time.Duration
	// Stalls are explicit transmitter outage windows.
	Stalls []Window
	// StallEvery/StallFor add a periodic outage: the first StallFor of
	// every StallEvery period, indefinitely.
	StallEvery time.Duration
	StallFor   time.Duration
	// Seed seeds the decision process (0 is remapped by workload.RNG).
	Seed uint64
}

func (c LinkConfig) withDefaults() LinkConfig {
	if c.BurstEnter > 0 && c.BurstLen <= 0 {
		c.BurstLen = 4
	}
	return c
}

// active reports whether the config injects anything at all.
func (c LinkConfig) active() bool {
	return c.BurstEnter > 0 || c.Corrupt > 0 || c.Duplicate > 0 ||
		c.JitterMean > 0 || c.JitterStddev > 0 ||
		len(c.Stalls) > 0 || (c.StallEvery > 0 && c.StallFor > 0)
}

// Link is a per-link fault process implementing atm.FaultHook. One
// Link must serve exactly one atm link: the burst state and RNG
// sequence are per-instance.
type Link struct {
	cfg       LinkConfig
	rng       *workload.RNG
	burstLeft int
}

// NewLink returns a fault process for one link.
func NewLink(cfg LinkConfig) *Link {
	cfg = cfg.withDefaults()
	return &Link{cfg: cfg, rng: workload.NewRNG(cfg.Seed)}
}

// OnMessage decides this message's fate. The RNG is consumed in a
// fixed order (burst, corrupt, duplicate, jitter), so the schedule
// depends only on the seed and the message sequence.
func (l *Link) OnMessage(now occam.Time, vci uint32, size int) atm.FaultAction {
	var act atm.FaultAction
	if l.burstLeft > 0 {
		l.burstLeft--
		act.Drop, act.Reason = true, "burst-loss"
		return act
	}
	if l.cfg.BurstEnter > 0 && l.rng.Bool(l.cfg.BurstEnter) {
		// Mean-BurstLen geometric-ish burst: this message plus up to
		// 2·mean−2 more.
		l.burstLeft = l.rng.Intn(2*l.cfg.BurstLen - 1)
		act.Drop, act.Reason = true, "burst-loss"
		return act
	}
	if l.cfg.Corrupt > 0 && l.rng.Bool(l.cfg.Corrupt) {
		act.Corrupt = true
	}
	if l.cfg.Duplicate > 0 && l.rng.Bool(l.cfg.Duplicate) {
		act.Duplicate = true
	}
	if l.cfg.JitterMean > 0 || l.cfg.JitterStddev > 0 {
		d := l.rng.Norm(float64(l.cfg.JitterMean), float64(l.cfg.JitterStddev))
		if d > 0 {
			act.Delay = time.Duration(d)
		}
	}
	return act
}

// StallUntil returns the end of the outage covering now, or zero.
func (l *Link) StallUntil(now occam.Time) occam.Time {
	for _, w := range l.cfg.Stalls {
		if w.Contains(now) {
			return occam.Time(w.To)
		}
	}
	if l.cfg.StallEvery > 0 && l.cfg.StallFor > 0 {
		phase := time.Duration(int64(now) % int64(l.cfg.StallEvery))
		if phase < l.cfg.StallFor {
			return now.Add(l.cfg.StallFor - phase)
		}
	}
	return 0
}

// Stalls converts outage windows into the stall callback a decoupling
// buffer takes via decouple.Buffer.SetStall: a stuck sink channel (a wedged
// output device) that resumes when the window closes.
func Stalls(windows []Window) func(now occam.Time) occam.Time {
	ws := append([]Window(nil), windows...)
	return func(now occam.Time) occam.Time {
		for _, w := range ws {
			if w.Contains(now) {
				return occam.Time(w.To)
			}
		}
		return 0
	}
}

// Spec is a parsed fault list (scenario.ParseFaults): which link faults
// to inject, all derived deterministically from one seed. A box's crash
// and sink-stall windows are not in it: they are its own (box.Config).
type Spec struct {
	// Link is the per-link fault template; LinkFault derives one
	// seeded instance per link name.
	Link LinkConfig
	// Target, when non-empty, restricts link faults to links and fabric
	// ports whose name starts with it ("a-b" hits one link pair,
	// "fab.p03" one port, "fab." a whole fabric). Empty targets
	// everything, as before.
	Target string
	// Seed is the spec's master seed.
	Seed uint64
}

// Active reports whether the spec injects anything.
func (s Spec) Active() bool { return s.Link.active() }

// LinkFault returns a fault process for the named link, or nil when
// the spec has no link faults. The per-link seed folds the link name
// into the master seed so parallel links get independent — but still
// reproducible — schedules.
func (s Spec) LinkFault(name string) *Link {
	if !s.Link.active() {
		return nil
	}
	if s.Target != "" && !strings.HasPrefix(name, s.Target) {
		return nil
	}
	cfg := s.Link
	cfg.Seed = DeriveSeed(s.Seed, name)
	return NewLink(cfg)
}

// DeriveSeed folds a name into a master seed (FNV-1a), giving each
// named component an independent deterministic RNG stream.
func DeriveSeed(seed uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h ^ seed
}

// Package faultinject is the deterministic fault layer: seedable
// processes that inject the failures the paper's environment suffered
// — ATM cell loss in bursts, payload corruption, duplicate delivery,
// link jitter and stalls, stuck sink channels, and board
// crash-and-restart — so the overload and recovery machinery
// (internal/degrade, the clawback buffers, the switch's shed paths)
// can be provoked on demand and regression-tested.
//
// The package makes *decisions only*: a fault process answers "drop
// this message?", "is this board down now?"; the component hosting the
// hook (an atm.Link, a box board, a decoupling buffer) owns the
// counters and trace events, so every injected fault is visible in the
// obs registry without this package importing any of them. Decisions
// are pure functions of a seed and the (virtual-time-deterministic)
// call sequence, so the same seed always reproduces the same fault
// schedule — the property the replay tests assert.
package faultinject

import (
	"fmt"
	"strconv"
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

// Boards is a crash-and-restart schedule for a box's transputer
// boards: while a board is down its input processes discard everything
// they receive (the data path keeps draining so a restart finds clean
// channels, as the real box's watchdog restart did). Nil-receiver
// safe, so boxes consult it unconditionally.
type Boards struct {
	windows map[string][]Window
}

// NewBoards returns an empty crash schedule.
func NewBoards() *Boards { return &Boards{windows: make(map[string][]Window)} }

// Crash schedules an outage for the named board ("server", "audio",
// "display") and returns the receiver for chaining.
func (b *Boards) Crash(board string, from, to time.Duration) *Boards {
	b.windows[board] = append(b.windows[board], Window{From: from, To: to})
	return b
}

// Down reports whether the named board is crashed at now.
func (b *Boards) Down(board string, now occam.Time) bool {
	if b == nil {
		return false
	}
	for _, w := range b.windows[board] {
		if w.Contains(now) {
			return true
		}
	}
	return false
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

// Spec is a parsed pandora-sim -faults specification: which canned
// faults to inject, all derived deterministically from one seed.
type Spec struct {
	// Link is the per-link fault template; LinkFault derives one
	// seeded instance per link name.
	Link LinkConfig
	// SinkStalls are outage windows for every box's net-video
	// decoupling buffer (a stuck sink channel).
	SinkStalls []Window
	// Crashes maps board name to outage windows, applied to the first
	// box (alphabetically) of the simulation.
	Crashes map[string][]Window
	// Target, when non-empty, restricts link faults to links and fabric
	// ports whose name starts with it ("a-b" hits one link pair,
	// "fab.p03" one port, "fab." a whole fabric). Empty targets
	// everything, as before.
	Target string
	// Seed is the spec's master seed.
	Seed uint64
}

// Active reports whether the spec injects anything.
func (s Spec) Active() bool {
	return s.Link.active() || len(s.SinkStalls) > 0 || len(s.Crashes) > 0
}

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

// ParseSpec parses a comma-separated fault list (the pandora-sim
// -faults flag and the scenario-file "faults" directive): any of
// "loss", "corrupt", "dup", "jitter", "stall" (periodic link
// outages), "sink" (stuck net-video sink windows) and "crash"
// (server-board crash-and-restart), or "all", plus "target=<prefix>"
// to confine the link faults to links or fabric ports whose name
// starts with the prefix. The canned parameters are chosen to visibly
// stress a few-second conference run without silencing it.
//
// Each canned word also has a parameterised form, so a scenario file
// can state exact rates instead of the canned ones:
//
//	burst=P[/L]      loss-burst entry probability P, mean length L
//	corrupt=P        per-message corruption probability
//	dup=P            per-message duplication probability
//	jitter=M[/S]     extra delay, mean M and stddev S (durations)
//	stall=E/F        periodic outage: the first F of every E
//	stallwin=F-T     one explicit outage window (repeatable)
//	sink=F-T         one sink-stall window (repeatable)
//	crash=B:F-T      one crash window for board B (repeatable)
//	seed=N           override the master seed
//
// Parse errors name the offending token and its position in the list.
func ParseSpec(list string, seed uint64) (Spec, error) {
	s := Spec{Seed: seed}
	if strings.TrimSpace(list) == "" {
		return s, nil
	}
	offset := 0
	for i, raw := range strings.Split(list, ",") {
		tok := strings.TrimSpace(raw)
		if err := s.applyToken(tok); err != nil {
			return Spec{}, fmt.Errorf("faultinject: token %d (%q) at char %d: %w",
				i+1, tok, offset+countLeadingSpace(raw), err)
		}
		offset += len(raw) + 1 // the comma
	}
	return s, nil
}

func countLeadingSpace(s string) int { return len(s) - len(strings.TrimLeft(s, " \t")) }

// applyToken folds one grammar token into the spec.
func (s *Spec) applyToken(tok string) error {
	if key, val, ok := strings.Cut(tok, "="); ok {
		return s.applyParam(key, val)
	}
	switch tok {
	case "loss":
		s.Link.BurstEnter, s.Link.BurstLen = 0.01, 4
	case "corrupt":
		s.Link.Corrupt = 0.01
	case "dup":
		s.Link.Duplicate = 0.005
	case "jitter":
		s.Link.JitterMean, s.Link.JitterStddev = time.Millisecond, 2*time.Millisecond
	case "stall":
		s.Link.StallEvery, s.Link.StallFor = time.Second, 150*time.Millisecond
	case "sink":
		s.SinkStalls = []Window{
			{From: time.Second, To: 1200 * time.Millisecond},
			{From: 3 * time.Second, To: 3200 * time.Millisecond},
		}
	case "crash":
		s.crash("server", Window{From: 1500 * time.Millisecond, To: 2 * time.Second})
	case "all":
		s.Link.BurstEnter, s.Link.BurstLen = 0.01, 4
		s.Link.Corrupt = 0.01
		s.Link.Duplicate = 0.005
		s.Link.JitterMean, s.Link.JitterStddev = time.Millisecond, 2*time.Millisecond
	case "":
	default:
		return fmt.Errorf("unknown fault %q (want loss, corrupt, dup, jitter, stall, sink, crash or all)", tok)
	}
	return nil
}

// applyParam folds one key=value token into the spec.
func (s *Spec) applyParam(key, val string) error {
	switch key {
	case "target":
		s.Target = val
		return nil
	case "seed":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("seed wants an unsigned integer, got %q", val)
		}
		s.Seed = n
		return nil
	case "burst":
		p, l, split := strings.Cut(val, "/")
		prob, err := parseProb(p)
		if err != nil {
			return err
		}
		s.Link.BurstEnter = prob
		if split {
			n, err := strconv.Atoi(l)
			if err != nil || n < 1 {
				return fmt.Errorf("burst length wants a positive integer, got %q", l)
			}
			s.Link.BurstLen = n
		}
		return nil
	case "corrupt":
		prob, err := parseProb(val)
		if err != nil {
			return err
		}
		s.Link.Corrupt = prob
		return nil
	case "dup":
		prob, err := parseProb(val)
		if err != nil {
			return err
		}
		s.Link.Duplicate = prob
		return nil
	case "jitter":
		m, sd, split := strings.Cut(val, "/")
		mean, err := time.ParseDuration(m)
		if err != nil {
			return fmt.Errorf("jitter mean: %q is not a duration", m)
		}
		s.Link.JitterMean = mean
		if split {
			stddev, err := time.ParseDuration(sd)
			if err != nil {
				return fmt.Errorf("jitter stddev: %q is not a duration", sd)
			}
			s.Link.JitterStddev = stddev
		}
		return nil
	case "stall":
		e, f, split := strings.Cut(val, "/")
		if !split {
			return fmt.Errorf("stall wants EVERY/FOR durations, got %q", val)
		}
		every, err := time.ParseDuration(e)
		if err != nil {
			return fmt.Errorf("stall period: %q is not a duration", e)
		}
		dur, err := time.ParseDuration(f)
		if err != nil {
			return fmt.Errorf("stall length: %q is not a duration", f)
		}
		s.Link.StallEvery, s.Link.StallFor = every, dur
		return nil
	case "stallwin":
		w, err := ParseWindow(val)
		if err != nil {
			return err
		}
		s.Link.Stalls = append(s.Link.Stalls, w)
		return nil
	case "sink":
		w, err := ParseWindow(val)
		if err != nil {
			return err
		}
		s.SinkStalls = append(s.SinkStalls, w)
		return nil
	case "crash":
		board, win, split := strings.Cut(val, ":")
		if !split || board == "" {
			return fmt.Errorf("crash wants BOARD:FROM-TO, got %q", val)
		}
		w, err := ParseWindow(win)
		if err != nil {
			return err
		}
		s.crash(board, w)
		return nil
	default:
		return fmt.Errorf("unknown fault parameter %q (want burst, corrupt, dup, jitter, stall, stallwin, sink, crash, target or seed)", key)
	}
}

func (s *Spec) crash(board string, w Window) {
	if s.Crashes == nil {
		s.Crashes = make(map[string][]Window)
	}
	s.Crashes[board] = append(s.Crashes[board], w)
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("probability wants a number in [0,1], got %q", v)
	}
	return p, nil
}

// ParseWindow parses "FROM-TO" into a Window of two durations with
// From < To.
func ParseWindow(v string) (Window, error) {
	f, t, ok := strings.Cut(v, "-")
	if !ok {
		return Window{}, fmt.Errorf("window wants FROM-TO durations, got %q", v)
	}
	from, err := time.ParseDuration(f)
	if err != nil {
		return Window{}, fmt.Errorf("window start: %q is not a duration", f)
	}
	to, err := time.ParseDuration(t)
	if err != nil {
		return Window{}, fmt.Errorf("window end: %q is not a duration", t)
	}
	if to <= from {
		return Window{}, fmt.Errorf("window %q ends before it starts", v)
	}
	return Window{From: from, To: to}, nil
}

// Package degrade is the overload controller: one small process per
// box (and per fabric port) that reads the occupancy of the queues it
// manages — the target's own decoupling buffers or egress queue
// (Target.DegradePressure) and the outgoing atm links it is given
// (Config.Links) — and applies the paper's ordered degradation policy
// when they stay high:
//
//   - video is bounded and shed before audio (principle 2): audio
//     streams are only shed under direct audio-buffer pressure, and
//     only after every video candidate is exhausted;
//   - incoming streams are shed before outgoing ones (principle 1),
//     reversed for repository boxes (§2.1), where the recorded
//     incoming stream is the one that must not be damaged;
//   - within a class, the longest-open stream is shed first
//     (principle 3), so new streams keep starting cleanly under load.
//
// A shed is delivered to the box as a switch-table suspension plus a
// mixer-side bar (Target.DegradeShed), so the data flow stops at the
// earliest point without touching the route itself; when pressure
// stays below the low-water mark for a hold period, streams are
// restored in LIFO order — the least-disruptive first (principle 8:
// local adaptation, no end-to-end cooperation). Every decision is
// counted (degrade_shed_total, degrade_restore_total) and traced
// (EvOverload / EvRecover), and kept in an action log the experiments
// assert on.
//
// The controller is a stackless process (occam.GoStep) that samples at
// its own turn every Interval. Carrying out a shed or a restore may park
// it on the target, and what follows that wait is Target.DegradeSettle.
package degrade

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/atm"
	"repro/internal/obs"
	"repro/internal/occam"
)

// StreamInfo describes one candidate stream at the target box.
type StreamInfo struct {
	ID       uint32
	Video    bool
	Incoming bool // delivered locally (speaker/display) vs network-bound
	Opened   occam.Time
}

// Target is the box-side interface the controller drives. A
// *box.Box implements it; tests use fakes.
type Target interface {
	// DegradeName identifies the target in metrics and traces.
	DegradeName() string
	// DegradeStreams lists the currently routed streams.
	DegradeStreams() []StreamInfo
	// DegradePressure reports the target's own video and audio
	// pressure: the occupancy ratio of its fullest queue of each class.
	DegradePressure() (video, audio float64)
	// DegradeShed suspends a stream; DegradeRestore resumes it. Either
	// may park p, a stackless process, on the target (Proc.Parked).
	DegradeShed(p *occam.Proc, id uint32)
	DegradeRestore(p *occam.Proc, id uint32)
	// DegradeSettle finishes the shed (shed true) or restore of id once
	// the call that began it is done: in the same turn if that did not
	// park the controller, at its next turn if it did.
	DegradeSettle(id uint32, shed bool)
	// DegradeRepositoryOrder reverses incoming-before-outgoing
	// (repository boxes protect incoming recorded streams, §2.1).
	DegradeRepositoryOrder() bool
}

// The watermarks of the control loop, as ratios of a watched queue's
// limit. The gap between them is the hysteresis that keeps a stream
// from being shed and restored on alternate ticks.
const (
	// highWater is the pressure at or above which streams are shed.
	highWater = 0.75
	// lowWater is the pressure below which restores begin.
	lowWater = 0.25
)

// Config parameterises a Controller. Zero values select defaults.
type Config struct {
	// Interval is the control-loop period (default 20 ms).
	Interval time.Duration
	// Hold is how long pressure must stay below lowWater — and the
	// minimum spacing between restores (default 400 ms).
	Hold time.Duration
	// ShedEvery is the minimum spacing between sheds, so the ladder
	// descends one stream at a time (default 100 ms).
	ShedEvery time.Duration
	// Links are the atm links whose output-queue occupancy counts
	// toward this target's video pressure — congestion there is
	// relieved by shedding video at this box.
	Links []*atm.Link
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 20 * time.Millisecond
	}
	if c.Hold <= 0 {
		c.Hold = 400 * time.Millisecond
	}
	if c.ShedEvery <= 0 {
		c.ShedEvery = 100 * time.Millisecond
	}
	return c
}

// Action is one logged controller decision.
type Action struct {
	At       occam.Time
	Restore  bool
	Stream   uint32
	Video    bool
	Incoming bool
	// VideoPressure/AudioPressure are the ratios that triggered it.
	VideoPressure, AudioPressure float64
}

func (a Action) String() string {
	return fmt.Sprintf("[%10.3fms] %s stream %d (video=%.2f audio=%.2f)",
		a.At.Millis(), a.desc(), a.Stream, a.VideoPressure, a.AudioPressure)
}

// desc is the action without timestamp, stream or pressures — the
// trace-event message (the ring records those fields itself).
func (a Action) desc() string {
	verb, class, dir := "shed", "audio", "outgoing"
	if a.Restore {
		verb = "restore"
	}
	if a.Video {
		class = "video"
	}
	if a.Incoming {
		dir = "incoming"
	}
	return verb + " " + class + " " + dir
}

// Controller is one box's overload controller process.
type Controller struct {
	target Target
	cfg    Config
	trace  *obs.Tracer

	shed  map[uint32]StreamInfo
	stack []uint32 // restore order: last shed, first restored
	log   []Action

	lastHigh    occam.Time
	lastShed    occam.Time
	lastRestore occam.Time

	// The pressures of the last sample and, when it found a decision
	// due, which.
	video, audio float64
	restoreDue   bool

	// Where the step resumes, and the decision being carried out: the
	// stream shed and the action logged once the target has settled it.
	at     int
	victim StreamInfo
	act    Action

	// Counts of decisions and samples, which the controller's registry
	// row reads with video and audio, the pressures of the last sample.
	shedVideo, shedAudio, restores, ticks uint64
}

// New starts a controller for target on rt; its instruments register
// in reg (nil for none).
func New(rt *occam.Runtime, target Target, cfg Config, reg *obs.Registry) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		target: target,
		cfg:    cfg,
		trace:  reg.Tracer(),
		shed:   make(map[uint32]StreamInfo),
	}
	controllerTable.Register(reg, c, obs.L("box", target.DegradeName()))
	rt.GoStep(target.DegradeName()+".degrade", nil, occam.High, c.step)
	return c
}

// controllerTable is a controller's decision and sample counts, the
// pressures it last sampled and how many streams it has shed now.
var controllerTable = obs.NewTable(
	obs.CounterOf("degrade_shed_total", func(c *Controller) uint64 { return c.shedVideo }, obs.L("media", "video")),
	obs.CounterOf("degrade_shed_total", func(c *Controller) uint64 { return c.shedAudio }, obs.L("media", "audio")),
	obs.CounterOf("degrade_restore_total", func(c *Controller) uint64 { return c.restores }),
	obs.CounterOf("degrade_ticks_total", func(c *Controller) uint64 { return c.ticks }),
	obs.GaugeOf("degrade_pressure_video", func(c *Controller) float64 { return c.video }),
	obs.GaugeOf("degrade_pressure_audio", func(c *Controller) float64 { return c.audio }),
	obs.GaugeOf("degrade_active_sheds", func(c *Controller) float64 { return float64(c.NumShed()) }),
)

// Actions returns the decision log.
func (c *Controller) Actions() []Action { return append([]Action(nil), c.log...) }

// NumShed returns how many streams are shed now.
func (c *Controller) NumShed() int { return len(c.shed) }

// Where the controller's step resumes.
const (
	ctlSleep  = iota // about to sleep an Interval
	ctlSample        // an Interval is over: sample, and begin a decision if one is due
	ctlSettle        // the target is done with it: settle it and log it
)

// step is the control loop: a sample every Interval, and a shed or a
// restore when one finds it due. Carrying it out may park the controller
// (Target.DegradeShed's rendezvous with the switch), and the decision is
// settled, counted, logged and traced when that wait is over. The next
// sample is an Interval after that.
func (c *Controller) step(p *occam.Proc) {
	for {
		switch c.at {
		case ctlSleep:
			// An Interval ahead, so this always parks.
			c.at = ctlSample
			if p.Sleep(c.cfg.Interval); p.Parked() {
				return
			}
		case ctlSample:
			c.at = ctlSleep
			if !c.sample(p.Now()) {
				continue
			}
			if c.restoreDue {
				c.restoreOne(p, p.Now())
			} else {
				c.shedOne(p, p.Now())
			}
			if p.Parked() {
				return
			}
		case ctlSettle:
			c.settle()
			c.at = ctlSleep
		}
	}
}

// sample is one tick of the control loop up to the decision: it reads
// the pressures into the gauges and reports whether a shed or a restore
// is due now.
func (c *Controller) sample(now occam.Time) bool {
	c.ticks++
	c.video, c.audio = c.pressure()
	switch {
	case c.video >= highWater || c.audio >= highWater:
		c.lastHigh = now
		c.restoreDue = false
		return now.Sub(c.lastShed) >= c.cfg.ShedEvery
	case c.video < lowWater && c.audio < lowWater &&
		len(c.stack) > 0 &&
		now.Sub(c.lastHigh) >= c.cfg.Hold &&
		now.Sub(c.lastRestore) >= c.cfg.Hold:
		c.restoreDue = true
		return true
	}
	return false
}

// pressure is the target's own pair with the outbound links folded
// into video, the class whose shedding relieves them.
func (c *Controller) pressure() (video, audio float64) {
	video, audio = c.target.DegradePressure()
	for _, l := range c.cfg.Links {
		video = max(video, l.Occupancy())
	}
	return video, audio
}

// rank orders candidates by the paper's policy: video before audio
// always; within a class, incoming before outgoing (reversed for
// repositories); ties broken by age, oldest first.
func (c *Controller) rank(s StreamInfo) int {
	r := 0
	if !s.Video {
		r += 2
	}
	first := s.Incoming
	if c.target.DegradeRepositoryOrder() {
		first = !s.Incoming
	}
	if !first {
		r++
	}
	return r
}

// shedOne picks the single best victim, if any, and begins shedding it.
// Audio candidates are considered only under direct audio pressure, and
// even then every video stream goes first.
func (c *Controller) shedOne(p *occam.Proc, now occam.Time) {
	var cands []StreamInfo
	for _, s := range c.target.DegradeStreams() {
		if _, already := c.shed[s.ID]; already {
			continue
		}
		if !s.Video && c.audio < highWater {
			continue // audio is only shed under audio pressure
		}
		cands = append(cands, s)
	}
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		ri, rj := c.rank(cands[i]), c.rank(cands[j])
		if ri != rj {
			return ri < rj
		}
		if cands[i].Opened != cands[j].Opened {
			return cands[i].Opened < cands[j].Opened
		}
		return cands[i].ID < cands[j].ID
	})
	victim := cands[0]
	c.victim = victim
	c.act = Action{At: now, Stream: victim.ID, Video: victim.Video,
		Incoming: victim.Incoming, VideoPressure: c.video, AudioPressure: c.audio}
	c.at = ctlSettle
	c.target.DegradeShed(p, victim.ID)
}

// restoreOne begins lifting the most recent shed (LIFO: the
// least-disruptive restore, since the youngest shed was the
// lowest-priority victim).
func (c *Controller) restoreOne(p *occam.Proc, now occam.Time) {
	id := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	info := c.shed[id]
	delete(c.shed, id)
	c.act = Action{At: now, Restore: true, Stream: id, Video: info.Video,
		Incoming: info.Incoming, VideoPressure: c.video, AudioPressure: c.audio}
	c.at = ctlSettle
	c.target.DegradeRestore(p, id)
}

// settle finishes the decision in c.act once the target is done with
// it: the target's own settling, then the controller's books, counters,
// log and trace.
func (c *Controller) settle() {
	act := c.act
	c.target.DegradeSettle(act.Stream, !act.Restore)
	if act.Restore {
		c.lastRestore = act.At
		c.restores++
		c.log = append(c.log, act)
		c.trace.Emit(obs.EvRecover, c.target.DegradeName()+".degrade", act.Stream, act.desc())
		return
	}
	c.shed[act.Stream] = c.victim
	c.stack = append(c.stack, act.Stream)
	c.lastShed = act.At
	if act.Video {
		c.shedVideo++
	} else {
		c.shedAudio++
	}
	c.log = append(c.log, act)
	c.trace.Emit(obs.EvOverload, c.target.DegradeName()+".degrade", act.Stream, act.desc())
}

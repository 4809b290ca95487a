// Package degrade is the overload controller: one small process per
// box (and per fabric port) that reads the video and audio pressure of
// the queues it manages from its Sampler (core.Pressure says which
// queues) and applies the paper's ordered degradation policy when they
// stay high:
//
//   - video is bounded and shed before audio (principle 2): audio
//     streams are only shed under direct audio-buffer pressure, and
//     only after every video candidate is exhausted;
//   - incoming streams are shed before outgoing ones (principle 1);
//   - within a class, the longest-open stream is shed first
//     (principle 3), so new streams keep starting cleanly under load.
//
// A shed is delivered to the box as a switch-table suspension
// (Target.DegradeShed), then a mixer-side bar (Target.DegradeSettle), so
// the data flow stops at the earliest point without touching the route
// itself; when pressure stays below the low-water mark for a hold
// period, streams are restored in LIFO order — the least-disruptive
// first (principle 8: local adaptation, no end-to-end cooperation).
// Every decision is counted (degrade_shed_total, degrade_restore_total)
// and traced (EvOverload / EvRecover), and kept in an action log the
// experiments assert on.
//
// The controller is a stackless process (occam.GoStep) that samples at
// its own turn every 20 ms. Carrying out a shed or a restore may park
// it on the target, and what follows that wait is Target.DegradeSettle.
package degrade

import (
	"fmt"
	"slices"
	"sort"
	"time"

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
	// DegradeShed suspends a stream; DegradeRestore resumes it. Either
	// may park p, a stackless process, on the target (Proc.Parked).
	DegradeShed(p *occam.Proc, id uint32)
	DegradeRestore(p *occam.Proc, id uint32)
	// DegradeSettle finishes the shed (shed true) or restore of id once
	// the call that began it is done: in the same turn if that did not
	// park the controller, at its next turn if it did.
	DegradeSettle(id uint32, shed bool)
}

// Sampler reads a controller's pressures: the occupancy ratio of the
// fullest watched queue of each class.
type Sampler interface {
	Pressure() (video, audio float64)
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

// interval is the control-loop period.
const interval = 20 * time.Millisecond

// Config parameterises a Controller. Zero values select defaults.
type Config struct {
	// Hold is how long pressure must stay below lowWater — and the
	// minimum spacing between restores (default 400 ms).
	Hold time.Duration
	// ShedEvery is the minimum spacing between sheds, so the ladder
	// descends one stream at a time (default 100 ms).
	ShedEvery time.Duration
}

// setDefaults sets each field left at zero or below to its default.
// It writes nothing to a Config whose fields are all set.
func (c *Config) setDefaults() {
	if c.Hold <= 0 {
		c.Hold = 400 * time.Millisecond
	}
	if c.ShedEvery <= 0 {
		c.ShedEvery = 100 * time.Millisecond
	}
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
	src    Sampler
	cfg    *Config // shared with every controller started from it
	trace  *obs.Tracer

	shed []StreamInfo // the streams shed now, in shed order: the last is restored first
	log  []Action

	lastHigh    occam.Time
	lastShed    occam.Time
	lastRestore occam.Time

	// The pressures of the last sample and, when it found a decision
	// due, which.
	video, audio float64
	restoreDue   bool

	// Where the step resumes, and the decision being carried out, logged
	// once the target has settled it.
	at  int
	act Action

	// Counts of decisions and samples, which the controller's registry
	// row reads with video and audio, the pressures of the last sample.
	shedVideo, shedAudio, restores, ticks uint64
}

// New starts a controller for target on rt that samples src,
// configured by cfg; its instruments register in reg (nil for none).
// The controller keeps cfg rather than a copy, so controllers started
// from one Config share it, and it must not change once one of them
// runs. New sets the fields of cfg left at zero to their defaults.
func New(rt *occam.Runtime, target Target, src Sampler, cfg *Config, reg *obs.Registry) *Controller {
	cfg.setDefaults()
	c := &Controller{
		target: target,
		src:    src,
		cfg:    cfg,
		trace:  reg.Tracer(),
	}
	controllerTable.Register(reg, c, obs.L("box", target.DegradeName()))
	rt.GoStep(target.DegradeName()+".degrade", nil, occam.High, (*controllerStep)(c))
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
	obs.GaugeOf("degrade_active_sheds", func(c *Controller) float64 { return float64(len(c.shed)) }),
)

// Actions returns the decision log.
func (c *Controller) Actions() []Action { return append([]Action(nil), c.log...) }

// NumShed returns how many streams are shed now.
func (c *Controller) NumShed() int { return len(c.shed) }

// Where the controller's step resumes.
const (
	ctlSleep  = iota // about to sleep an interval
	ctlSample        // an interval is over: sample, and begin a decision if one is due
	ctlSettle        // the target is done with it: settle it and log it
)

// step is the control loop: a sample every interval, and a shed or a
// restore when one finds it due. Carrying it out may park the controller
// (Target.DegradeShed's rendezvous with the switch), and the decision is
// settled, counted, logged and traced when that wait is over. The next
// sample is an interval after that.
// controllerStep is a controller as its process: its Step is step.
type controllerStep Controller

func (s *controllerStep) Step(p *occam.Proc) { (*Controller)(s).step(p) }

func (c *Controller) step(p *occam.Proc) {
	for {
		switch c.at {
		case ctlSleep:
			// An interval ahead, so this always parks.
			c.at = ctlSample
			if p.Sleep(interval); p.Parked() {
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
	c.video, c.audio = c.src.Pressure()
	switch {
	case c.video >= highWater || c.audio >= highWater:
		c.lastHigh = now
		c.restoreDue = false
		return now.Sub(c.lastShed) >= c.cfg.ShedEvery
	case c.video < lowWater && c.audio < lowWater &&
		len(c.shed) > 0 &&
		now.Sub(c.lastHigh) >= c.cfg.Hold &&
		now.Sub(c.lastRestore) >= c.cfg.Hold:
		c.restoreDue = true
		return true
	}
	return false
}

// rank orders candidates by the paper's policy: video before audio
// always; within a class, incoming before outgoing; ties broken by
// age, oldest first.
func rank(s StreamInfo) int {
	r := 0
	if !s.Video {
		r += 2
	}
	if !s.Incoming {
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
		if slices.ContainsFunc(c.shed, func(sh StreamInfo) bool { return sh.ID == s.ID }) {
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
		ri, rj := rank(cands[i]), rank(cands[j])
		if ri != rj {
			return ri < rj
		}
		if cands[i].Opened != cands[j].Opened {
			return cands[i].Opened < cands[j].Opened
		}
		return cands[i].ID < cands[j].ID
	})
	victim := cands[0]
	c.act = Action{At: now, Stream: victim.ID, Video: victim.Video,
		Incoming: victim.Incoming, VideoPressure: c.video, AudioPressure: c.audio}
	c.at = ctlSettle
	c.target.DegradeShed(p, victim.ID)
}

// restoreOne begins lifting the most recent shed (LIFO: the
// least-disruptive restore, since the youngest shed was the
// lowest-priority victim).
func (c *Controller) restoreOne(p *occam.Proc, now occam.Time) {
	info := c.shed[len(c.shed)-1]
	c.shed = c.shed[:len(c.shed)-1]
	c.act = Action{At: now, Restore: true, Stream: info.ID, Video: info.Video,
		Incoming: info.Incoming, VideoPressure: c.video, AudioPressure: c.audio}
	c.at = ctlSettle
	c.target.DegradeRestore(p, info.ID)
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
	c.shed = append(c.shed, StreamInfo{ID: act.Stream, Video: act.Video, Incoming: act.Incoming})
	c.lastShed = act.At
	if act.Video {
		c.shedVideo++
	} else {
		c.shedAudio++
	}
	c.log = append(c.log, act)
	c.trace.Emit(obs.EvOverload, c.target.DegradeName()+".degrade", act.Stream, act.desc())
}

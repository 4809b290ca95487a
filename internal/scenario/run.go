package scenario

import (
	"cmp"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/atm"
	"repro/internal/balancer"
	"repro/internal/box"
	"repro/internal/core"
	"repro/internal/degrade"
	"repro/internal/faultinject"
	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/workload"
)

// Runner executes one scenario on a fresh core.System. Build order is
// fixed — boxes, links, fabrics, feeds, cross traffic, faults,
// degradation, then one control process playing the event timeline —
// so that two runs of the same spec are byte-identical, and a spec
// that reproduces a hand-wired experiment reproduces its schedule
// exactly.
type Runner struct {
	Spec *Scenario
	Sys  *core.System
	// Streams holds every stream a timeline event named with "as";
	// conference and call members land under "REF[i]". A closed stream
	// stays, with the figures the report and the asserts read (see
	// core.Stream).
	Streams map[string]*core.Stream
	// Ctrls are the degradation controllers by box or fabric-port name
	// (nil when the spec has no degrade phase).
	Ctrls map[string]*degrade.Controller
	// Bal is the balancer control plane (nil without a balance block).
	// It is installed as the system's Placer before the timeline runs,
	// so every tree attach/pull/repair is load-ranked, and the timeline
	// consults it for call admission and `call A ?` placement.
	Bal *balancer.Balancer
	// FaultSpec is the parsed fault phase.
	FaultSpec faultinject.Spec
	// Refused holds the timeline events a stream's plan refused, which
	// Validate cannot foresee under a balancer; the timeline goes on.
	Refused []error

	started  bool
	admitted map[string]bool // refs of admitted (budget-holding) calls
	twin     *Runner         // the fault-free twin, once CleanTwin has run it
}

// NewRunner validates the spec and prepares a runner.
func NewRunner(sc *Scenario) (*Runner, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	fs, err := ParseFaults(sc.Faults, sc.Seed)
	if err != nil {
		return nil, err
	}
	return &Runner{Spec: sc, FaultSpec: fs, Streams: make(map[string]*core.Stream)}, nil
}

// building serialises Start's use of the process-wide collector
// setting.
var building sync.Mutex

// Start builds the system and spawns every process, including the
// timeline, without advancing virtual time. then, when non-nil, runs
// inside the timeline control process after the last event — the hook
// measurement probes use to share the timeline's schedule.
//
// The collector is off while the system is built and runs once when it
// stands. Most of what a build allocates stays live, so the cycles the
// pacer would start at each doubling of the heap free little, and where
// the last of them lands is decided by timing: early, or in the run's
// first instants with its goal set from a heap still full of the
// builder's garbage — after which the Go runtime spends the run's first
// second returning that garbage to the OS in the background. One
// collection at a fixed point gives every run of a spec the same heap
// goal to start from.
func (r *Runner) Start(then func(p *occam.Proc)) {
	if r.started {
		panic("scenario: Start called twice")
	}
	r.started = true
	building.Lock()
	gcPercent := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(gcPercent)
		building.Unlock()
		runtime.GC()
	}()
	sc := r.Spec
	s := core.NewSystem()
	r.Sys = s
	// A netsend's VCI is the spec's, not core's: reserve it before any
	// event, so no stream opened earlier takes it.
	for _, ev := range sc.Events {
		if ev.Op == "netsend" {
			s.ReserveVCI(ev.VCI)
		}
	}

	for _, bs := range sc.Boxes {
		cfg := bs.Config
		cfg.Mic = bs.Mic.Source()
		if ws := bs.SinkStalls; len(ws) > 0 {
			cfg.SinkStalls = map[string][]faultinject.Window{"net-video": ws, "net-audio": ws}
		}
		s.AddBox(cfg)
	}

	for _, l := range sc.Links {
		s.ConnectPath(l.From, l.To, l.Hops)
	}

	for _, f := range sc.Fabrics {
		s.AddFabric(f.Name, f.Config)
		for _, n := range f.Attach {
			s.AttachFabric(f.Name, n)
		}
	}

	for i, fd := range sc.Feeds {
		r.startFeed(hostName("gen", i), fd)
	}
	for i, c := range sc.Cross {
		r.startCross(hostName("cross", i), hostName("crossSink", i), c)
	}

	if r.FaultSpec.Active() {
		s.InjectLinkFaults(r.FaultSpec)
	}
	if sc.Degrade != nil {
		r.Ctrls = s.EnableDegradation(*sc.Degrade)
	}
	if sc.Balance != nil {
		r.Bal = balancer.New(s, *sc.Balance)
		r.Bal.Start()
		r.admitted = make(map[string]bool)
	}

	// The timeline plays in time order, held once: a spec written in time
	// order is played from its own events.
	byTime := func(a, b Event) int { return cmp.Compare(a.At, b.At) }
	events := sc.Events
	if !slices.IsSortedFunc(events, byTime) {
		events = slices.SortedStableFunc(slices.Values(events), byTime)
	}
	if len(events) > 0 || then != nil {
		s.Control(func(p *occam.Proc) {
			// Event times are offsets between command issues, not absolute
			// deadlines: the timeline sleeps the delta from the previous
			// event's time, so each command starts its gap after the
			// previous command completed — command calls themselves consume
			// virtual time (circuit setup round trips), and this is exactly
			// how a hand-written control process with p.Sleep between
			// commands behaves.
			var prev time.Duration
			for _, ev := range events {
				if d := ev.At - prev; d > 0 {
					p.Sleep(d)
				}
				prev = ev.At
				if err := r.apply(p, ev); err != nil {
					r.Refused = append(r.Refused, fmt.Errorf("%s at %s: %w", ev.Op, ev.At, err))
				}
			}
			if then != nil {
				then(p)
			}
		})
	}
}

// hostName keeps the first generator's historical name ("gen",
// "cross") and numbers the rest, so single-generator specs reproduce
// the hand-wired experiments' process names exactly.
func hostName(base string, i int) string {
	if i == 0 {
		return base
	}
	return fmt.Sprintf("%s%d", base, i+1)
}

// startFeed replicates the experiment suite's feedStreams generator: a
// host pushing N tone streams of 2-block segments every 4 ms.
func (r *Runner) startFeed(name string, fd Feed) {
	s := r.Sys
	gen := s.Net.AddHost(name)
	dst := s.Box(fd.Box)
	l := s.Net.AddLink(name+"-feed", atm.LinkConfig{Bandwidth: 100_000_000})
	n, base := fd.N, fd.Base
	for i := 0; i < n; i++ {
		s.OpenHostCircuit(base+uint32(i), gen, dst.Host(), l)
	}
	s.Control(func(p *occam.Proc) {
		for i := 0; i < n; i++ {
			dst.SetRoute(p, box.Route{Stream: base + uint32(i), Outputs: []box.Output{box.OutSpeaker}})
		}
		tone := workload.NewTone(400, 8000)
		pool := segment.NewWirePool()
		seqs := make([]uint32, n)
		var (
			aseg  segment.Audio
			adata = make([]byte, 2*segment.BlockSamples)
		)
		for tick := 0; ; tick++ {
			p.SleepUntil(occam.Time(int64(tick) * int64(2*segment.BlockDuration)))
			for i := 0; i < n; i++ {
				tone.FillBlock(adata[:segment.BlockSamples])
				tone.FillBlock(adata[segment.BlockSamples:])
				w := pool.Encode(aseg.Reset(seqs[i], p.Now(), adata))
				seqs[i]++
				if gen.Send(p, atm.Message{VCI: base + uint32(i), Size: w.Len(), W: w}) != nil {
					w.Release()
				}
			}
		}
	})
}

// startCross replicates E16's cross-traffic pair: a drain host and a
// transmitter hammering one hop of an existing path.
func (r *Runner) startCross(txName, sinkName string, c Cross) {
	s := r.Sys
	hop := s.Path(c.From, c.To)[c.Hop]
	tx := s.Net.AddHost(txName)
	sink := s.Net.AddHost(sinkName)
	s.OpenHostCircuit(c.VCI, tx, sink, hop)
	s.RT.Go(sinkName+".drain", nil, occam.High, func(p *occam.Proc) {
		for {
			sink.Rx.Recv(p)
		}
	})
	vci, seed, gap, szMin, szJit := c.VCI, c.Seed, c.Gap, c.SizeMin, c.SizeJitter
	if gap <= 0 {
		gap = 10 * time.Millisecond // default inter-message gap when the spec omits gap=
	}
	s.RT.Go(txName+".tx", nil, occam.Low, func(p *occam.Proc) {
		rng := workload.NewRNG(seed)
		for {
			p.Sleep(time.Duration(rng.Intn(int(gap))))
			size := szMin
			if szJit > 0 {
				size += rng.Intn(szJit)
			}
			tx.Send(p, atm.Message{VCI: vci, Size: size})
		}
	})
}

// apply executes one timeline event inside the control process and
// returns the plan's refusal, if any.
func (r *Runner) apply(p *occam.Proc, ev Event) (err error) {
	s := r.Sys
	st, ok := r.Streams[ev.Ref]
	switch ev.Op {
	case "audio":
		st = s.SendAudio(p, ev.From, ev.To...)
	case "video":
		st = s.SendVideo(p, ev.From, ev.Cam, ev.To...)
	case "tree":
		st, err = s.SendAudioTree(p, ev.Tree, ev.From, ev.To...)
		if r.Bal != nil {
			r.Bal.Manage(st)
		}
	case "pull":
		if ok {
			err = s.Pull(p, st, ev.To...)
		}
	case "repair":
		if ok {
			_, err = s.RepairTree(p, st, ev.To[0])
		}
	case "call", "conference":
		// A call is a two-member conference. Admission gate: reject
		// before degrade — a call the budget cannot hold is refused
		// outright instead of being served badly.
		if r.Bal != nil && !r.Bal.AdmitCall() {
			break
		}
		members := append([]string{ev.From}, ev.To...)
		if members[1] == "?" {
			// Balancer-placed callee: the least-loaded reachable box.
			picked, ok := r.Bal.PlaceCall(ev.From)
			if !ok {
				r.Bal.ReleaseCall()
				break
			}
			members[1] = picked
		}
		sts := s.Conference(p, members...)
		if ev.Ref != "" {
			for i, st := range sts {
				r.Streams[memberRef(ev.Ref, i)] = st
			}
			if r.Bal != nil {
				r.admitted[ev.Ref] = true
			}
		}
	case "drop":
		if ok {
			err = s.RemoveDestination(p, st, ev.To[0])
		}
	case "close":
		if r.Bal != nil && r.admitted[ev.Ref] {
			r.Bal.ReleaseCall()
			delete(r.admitted, ev.Ref)
		}
		if ok {
			s.Close(p, st)
			break
		}
		// A call or conference ref names a bundle of streams stored as
		// ref[0..n-1]: close every member.
		for i := 0; ; i++ {
			st, ok := r.Streams[memberRef(ev.Ref, i)]
			if !ok {
				break
			}
			s.Close(p, st)
		}
	case "netsend":
		// Raw route: the E1 "outgoing stream" — a mic stream pushed onto
		// an explicit VCI with no speaker route installed at the far end.
		src := s.Box(ev.From)
		src.SetRoute(p, box.Route{Stream: ev.Stream, Outputs: []box.Output{box.OutNetwork}, NetVCIs: []uint32{ev.VCI}})
		s.OpenCircuit(p, ev.VCI, ev.From, ev.To[0])
		src.StartMic(p, ev.Stream)
	}
	if o := ops[ev.Op]; o.opens && o.shape == toList && ev.Ref != "" {
		r.Streams[ev.Ref] = st
	}
	return err
}

// memberRef names member stream i of the call or conference ref.
func memberRef(ref string, i int) string { return ref + "[" + strconv.Itoa(i) + "]" }

// RunFor advances virtual time; Start must have been called.
func (r *Runner) RunFor(d time.Duration) error { return r.Sys.RunFor(d) }

// Run starts the scenario (with no probe hook) and plays it to its
// full duration.
func (r *Runner) Run() error {
	r.Start(nil)
	return r.RunFor(r.Spec.Duration)
}

// Close shuts the system down, and the fault-free twin's with it.
func (r *Runner) Close() {
	if r.Sys != nil {
		r.Sys.Shutdown()
	}
	if r.twin != nil {
		r.twin.Close()
	}
}

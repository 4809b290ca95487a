package degrade_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/degrade"
	"repro/internal/obs"
	"repro/internal/occam"
)

// fakeTarget implements degrade.Target with a scripted stream set and
// degrade.Sampler with scripted pressures, and records the controller's
// shed, restore and settle calls in order. With cmds set, a shed or a
// restore also sends the stream on it, as a box's does on its switch's
// command channel.
type fakeTarget struct {
	name         string
	streams      []degrade.StreamInfo
	video, audio float64
	shed         []uint32
	restored     []uint32
	settled      []string
	cmds         *occam.Chan[uint32]
}

func (t *fakeTarget) DegradeName() string                  { return t.name }
func (t *fakeTarget) DegradeStreams() []degrade.StreamInfo { return t.streams }
func (t *fakeTarget) Pressure() (video, audio float64)     { return t.video, t.audio }
func (t *fakeTarget) DegradeShed(p *occam.Proc, id uint32) {
	t.shed = append(t.shed, id)
	t.command(p, id)
}
func (t *fakeTarget) DegradeRestore(p *occam.Proc, id uint32) {
	t.restored = append(t.restored, id)
	t.command(p, id)
}
func (t *fakeTarget) command(p *occam.Proc, id uint32) {
	if t.cmds != nil {
		t.cmds.Send(p, id)
	}
}
func (t *fakeTarget) DegradeSettle(id uint32, shed bool) {
	t.settled = append(t.settled, fmt.Sprintf("%d shed=%v", id, shed))
}

// value reads one counter or gauge from a snapshot of reg.
func value(reg *obs.Registry, name string, labels ...obs.Label) float64 {
	sm, _ := reg.Snapshot().Get(name, labels...)
	return sm.Value
}

// quickCfg sheds at every 20 ms sample and restores after 50 ms.
var quickCfg = degrade.Config{
	ShedEvery: 10 * time.Millisecond,
	Hold:      50 * time.Millisecond,
}

// TestShedOrderAndLIFORestore drives the full ladder: under video
// pressure only the video streams shed — incoming before outgoing,
// oldest first — audio sheds only once audio pressure appears, and
// recovery restores in LIFO order.
func TestShedOrderAndLIFORestore(t *testing.T) {
	rt := occam.NewRuntime()
	reg := obs.New(rt)
	ft := &fakeTarget{name: "t", streams: []degrade.StreamInfo{
		{ID: 1, Video: true, Incoming: true, Opened: 100},
		{ID: 2, Video: true, Incoming: true, Opened: 200},
		{ID: 3, Video: true, Incoming: false, Opened: 50},
		{ID: 4, Video: false, Incoming: true, Opened: 10},
		{ID: 5, Video: false, Incoming: false, Opened: 20},
	}}
	c := degrade.New(rt, ft, ft, &quickCfg, reg)

	ft.video = 1 // hard overload
	if err := rt.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{1, 2, 3}; !reflect.DeepEqual(ft.shed, want) {
		t.Fatalf("video-pressure sheds = %v, want %v (incoming oldest first, then outgoing, never audio)", ft.shed, want)
	}

	ft.audio = 1 // audio overload too: now — and only now — audio sheds
	if err := rt.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{1, 2, 3, 4, 5}; !reflect.DeepEqual(ft.shed, want) {
		t.Fatalf("sheds after audio pressure = %v, want %v", ft.shed, want)
	}
	if got := value(reg, "degrade_shed_total", obs.L("box", "t"), obs.L("media", "video")); got != 3 {
		t.Fatalf("degrade_shed_total{media=video} = %v, want 3", got)
	}
	if got := value(reg, "degrade_shed_total", obs.L("box", "t"), obs.L("media", "audio")); got != 2 {
		t.Fatalf("degrade_shed_total{media=audio} = %v, want 2", got)
	}

	ft.video, ft.audio = 0, 0
	if err := rt.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{5, 4, 3, 2, 1}; !reflect.DeepEqual(ft.restored, want) {
		t.Fatalf("restores = %v, want %v (LIFO)", ft.restored, want)
	}
	if n := c.NumShed(); n != 0 {
		t.Fatalf("NumShed after recovery = %d, want 0", n)
	}
	if len(c.Actions()) != 10 {
		t.Fatalf("action log has %d entries, want 10", len(c.Actions()))
	}
	// A target that does not park is settled in the same turn, so each
	// decision's settle follows it before the next decision begins.
	want := []string{"1 shed=true", "2 shed=true", "3 shed=true", "4 shed=true", "5 shed=true",
		"5 shed=false", "4 shed=false", "3 shed=false", "2 shed=false", "1 shed=false"}
	if !reflect.DeepEqual(ft.settled, want) {
		t.Fatalf("settled %v, want %v", ft.settled, want)
	}
}

// TestShedSettlesWhenTheTargetTakesIt: a target whose shed waits on a
// rendezvous parks the controller. The decision keeps the instant it
// was taken at, but the controller counts, logs and settles it only
// when the rendezvous is over, and samples again an interval (20 ms)
// after that.
func TestShedSettlesWhenTheTargetTakesIt(t *testing.T) {
	const ms = occam.Time(time.Millisecond)
	rt := occam.NewRuntime()
	reg := obs.New(rt)
	ft := &fakeTarget{name: "t", streams: []degrade.StreamInfo{{ID: 1, Video: true, Incoming: true}},
		cmds: occam.NewChan[uint32](rt, "t.cmds")}
	c := degrade.New(rt, ft, ft, &quickCfg, reg)
	ft.video = 1
	var took string
	rt.Go("switch", nil, occam.High, func(p *occam.Proc) {
		p.SleepUntil(33 * ms) // the decision is due at the first sample, 20 ms
		id := ft.cmds.Recv(p)
		took = fmt.Sprintf("stream %d at %v: %d shed, settled %v", id, p.Now(), c.NumShed(), ft.settled)
	})
	if err := rt.RunUntil(52 * ms); err != nil {
		t.Fatal(err)
	}
	if want := "stream 1 at t+33ms: 0 shed, settled []"; took != want {
		t.Errorf("the target took %q, want %q", took, want)
	}
	acts := c.Actions()
	if len(acts) != 1 || acts[0].At != 20*ms || c.NumShed() != 1 || !reflect.DeepEqual(ft.settled, []string{"1 shed=true"}) {
		t.Errorf("after the rendezvous: actions %v, %d shed, settled %v; want one at 20ms, 1, [1 shed=true]",
			acts, c.NumShed(), ft.settled)
	}
	// A sample at 20 ms, then at 53 ms: an interval after the settle,
	// not on the 20 ms grid (which would have sampled at 40 ms).
	if ticks := value(reg, "degrade_ticks_total", obs.L("box", "t")); ticks != 1 {
		t.Errorf("%v samples by 52 ms, want 1", ticks)
	}
	if err := rt.RunUntil(53 * ms); err != nil {
		t.Fatal(err)
	}
	if ticks := value(reg, "degrade_ticks_total", obs.L("box", "t")); ticks != 2 {
		t.Errorf("%v samples by 53 ms, want 2", ticks)
	}
}

// TestLinkPressureShedsVideo: a box's congested outgoing link reaches
// its controller as video pressure — core.Pressure folds the link paths
// into Video, and core's tests check the fold — so it sheds the box's
// video and leaves its audio alone.
func TestLinkPressureShedsVideo(t *testing.T) {
	rt := occam.NewRuntime()
	reg := obs.New(rt)
	ft := &fakeTarget{name: "t", streams: []degrade.StreamInfo{
		{ID: 7, Video: true, Incoming: false, Opened: 1},
		{ID: 8, Video: false, Incoming: false, Opened: 1},
	}, video: 0.9}
	degrade.New(rt, ft, ft, &quickCfg, reg)

	if err := rt.RunFor(60 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{7}; !reflect.DeepEqual(ft.shed, want) {
		t.Fatalf("link-pressure sheds = %v, want %v (video only)", ft.shed, want)
	}
}

// TestIdleControllerSamplesWithoutBeingResumed: with nothing to decide,
// a virtual second is fifty samples — counted, gauged — each taken at
// one of the controller's own turns, a call of its step function, and no
// switch onto a stack.
func TestIdleControllerSamplesWithoutBeingResumed(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	reg := obs.New(rt)
	ft := &fakeTarget{name: "t", streams: []degrade.StreamInfo{{ID: 1, Video: true, Incoming: true}}}
	degrade.New(rt, ft, ft, &degrade.Config{}, reg)
	ft.video = 0.5 // between the watermarks: neither shed nor restore
	// Something else keeps the dispatch loop busy, so that a controller
	// woken for a tick would have to be switched into.
	rt.GoStep("busy", nil, occam.Low, occam.StepFunc(func(p *occam.Proc) { p.Sleep(300 * time.Microsecond) }))
	if err := rt.RunUntil(occam.Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	turns, resumes := 0, rt.Resumes()
	rt.Trace = func(line string) {
		if strings.HasSuffix(line, "] run t.degrade") {
			turns++
		}
	}
	if err := rt.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	ticks := value(reg, "degrade_ticks_total", obs.L("box", "t"))
	pressure := value(reg, "degrade_pressure_video", obs.L("box", "t"))
	if got := rt.Resumes() - resumes; got != 0 || ticks != 50 || turns != 50 || pressure != 0.5 {
		t.Errorf("an idle second: %d resumes for %v ticks in %d turns of the controller, video pressure gauge %v; want 0, 50, 50, 0.5",
			got, ticks, turns, pressure)
	}
	if len(ft.shed)+len(ft.restored) != 0 {
		t.Errorf("shed %v, restored %v with pressure between the watermarks", ft.shed, ft.restored)
	}
}

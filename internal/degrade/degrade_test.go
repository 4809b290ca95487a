package degrade_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/degrade"
	"repro/internal/obs"
	"repro/internal/occam"
)

// fakeTarget implements degrade.Target with a scripted stream set and
// records the controller's shed/restore calls in order.
type fakeTarget struct {
	name     string
	repo     bool
	streams  []degrade.StreamInfo
	shed     []uint32
	restored []uint32
}

func (t *fakeTarget) DegradeName() string                  { return t.name }
func (t *fakeTarget) DegradeStreams() []degrade.StreamInfo { return t.streams }
func (t *fakeTarget) DegradeVideoBuffers() []string        { return []string{t.name + ".vbuf"} }
func (t *fakeTarget) DegradeAudioBuffers() []string        { return []string{t.name + ".abuf"} }
func (t *fakeTarget) DegradeShed(p *occam.Proc, id uint32) { t.shed = append(t.shed, id) }
func (t *fakeTarget) DegradeRestore(p *occam.Proc, id uint32) {
	t.restored = append(t.restored, id)
}
func (t *fakeTarget) DegradeRepositoryOrder() bool { return t.repo }

// pressures registers fake buffer gauges under the names the
// controller reads, backed by the returned setters.
func pressures(reg *obs.Registry, name string) (setVideo, setAudio func(float64)) {
	var vq, aq float64
	vlb := obs.L("buffer", name+".vbuf")
	alb := obs.L("buffer", name+".abuf")
	reg.GaugeFunc("decouple_queued", func() float64 { return vq }, vlb)
	reg.GaugeFunc("decouple_limit", func() float64 { return 10 }, vlb)
	reg.GaugeFunc("decouple_queued", func() float64 { return aq }, alb)
	reg.GaugeFunc("decouple_limit", func() float64 { return 10 }, alb)
	return func(v float64) { vq = v }, func(v float64) { aq = v }
}

var quickCfg = degrade.Config{
	Interval:  5 * time.Millisecond,
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
	setVideo, setAudio := pressures(reg, "t")
	c := degrade.New(rt, ft, quickCfg, reg)

	setVideo(10) // ratio 1.0: hard overload
	if err := rt.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{1, 2, 3}; !reflect.DeepEqual(ft.shed, want) {
		t.Fatalf("video-pressure sheds = %v, want %v (incoming oldest first, then outgoing, never audio)", ft.shed, want)
	}

	setAudio(10) // audio overload too: now — and only now — audio sheds
	if err := rt.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{1, 2, 3, 4, 5}; !reflect.DeepEqual(ft.shed, want) {
		t.Fatalf("sheds after audio pressure = %v, want %v", ft.shed, want)
	}
	if got, _ := reg.Value("degrade_shed_total", obs.L("box", "t"), obs.L("media", "video")); got != 3 {
		t.Fatalf("degrade_shed_total{media=video} = %v, want 3", got)
	}
	if got, _ := reg.Value("degrade_shed_total", obs.L("box", "t"), obs.L("media", "audio")); got != 2 {
		t.Fatalf("degrade_shed_total{media=audio} = %v, want 2", got)
	}

	setVideo(0)
	setAudio(0)
	if err := rt.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{5, 4, 3, 2, 1}; !reflect.DeepEqual(ft.restored, want) {
		t.Fatalf("restores = %v, want %v (LIFO)", ft.restored, want)
	}
	if n := len(c.ActiveSheds()); n != 0 {
		t.Fatalf("ActiveSheds after recovery = %d, want 0", n)
	}
	if len(c.Actions()) != 10 {
		t.Fatalf("action log has %d entries, want 10", len(c.Actions()))
	}
}

// TestRepositoryOrderReversed: a repository box sheds outgoing before
// incoming — the recorded incoming stream is protected.
func TestRepositoryOrderReversed(t *testing.T) {
	rt := occam.NewRuntime()
	reg := obs.New(rt)
	ft := &fakeTarget{name: "t", repo: true, streams: []degrade.StreamInfo{
		{ID: 1, Video: true, Incoming: true, Opened: 5},
		{ID: 2, Video: true, Incoming: false, Opened: 10},
	}}
	setVideo, _ := pressures(reg, "t")
	degrade.New(rt, ft, quickCfg, reg)

	setVideo(10)
	if err := rt.RunFor(60 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{2, 1}; !reflect.DeepEqual(ft.shed, want) {
		t.Fatalf("repository sheds = %v, want %v (outgoing first)", ft.shed, want)
	}
}

// TestLinkPressureShedsVideo: congestion on a configured outgoing link
// counts as video pressure even with empty local buffers.
func TestLinkPressureShedsVideo(t *testing.T) {
	rt := occam.NewRuntime()
	reg := obs.New(rt)
	ft := &fakeTarget{name: "t", streams: []degrade.StreamInfo{
		{ID: 7, Video: true, Incoming: false, Opened: 1},
		{ID: 8, Video: false, Incoming: false, Opened: 1},
	}}
	pressures(reg, "t") // buffers exist but stay empty
	lb := obs.L("link", "t-x.0")
	reg.GaugeFunc("atm_link_queue_depth", func() float64 { return 9 }, lb)
	reg.GaugeFunc("atm_link_queue_limit", func() float64 { return 10 }, lb)
	cfg := quickCfg
	cfg.Links = []string{"t-x.0"}
	degrade.New(rt, ft, cfg, reg)

	if err := rt.RunFor(60 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{7}; !reflect.DeepEqual(ft.shed, want) {
		t.Fatalf("link-pressure sheds = %v, want %v (video only)", ft.shed, want)
	}
}

// TestIdleControllerSamplesWithoutBeingResumed: with nothing to decide,
// a virtual second is fifty samples — counted, gauged — taken by the
// scheduler at the controller's turns, and no switch onto its stack.
func TestIdleControllerSamplesWithoutBeingResumed(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	reg := obs.New(rt)
	ft := &fakeTarget{name: "t", streams: []degrade.StreamInfo{{ID: 1, Video: true, Incoming: true}}}
	setVideo, _ := pressures(reg, "t")
	degrade.New(rt, ft, degrade.Config{}, reg)
	setVideo(5) // between the watermarks: neither shed nor restore
	// Something else keeps the dispatch loop busy, so that a controller
	// woken for a tick would have to be switched into.
	rt.GoStep("busy", nil, occam.Low, func(p *occam.Proc) { p.Sleep(300 * time.Microsecond) })
	if err := rt.RunUntil(occam.Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	turns, resumes := rt.Switches(), rt.Resumes()
	if err := rt.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	ticks, _ := reg.Value("degrade_ticks_total", obs.L("box", "t"))
	pressure, _ := reg.Value("degrade_pressure_video", obs.L("box", "t"))
	if got := rt.Resumes() - resumes; got != 0 || ticks != 50 || pressure != 0.5 {
		t.Errorf("an idle second: %d resumes for %v ticks (%d turns in all), video pressure gauge %v; want 0, 50, 0.5",
			got, ticks, rt.Switches()-turns, pressure)
	}
	if len(ft.shed)+len(ft.restored) != 0 {
		t.Errorf("shed %v, restored %v with pressure between the watermarks", ft.shed, ft.restored)
	}
}

package experiment

import "fmt"

// FabricResult is E22's machine-readable outcome, asserted by the
// tests.
type FabricResult struct {
	Boxes     int
	AudioShed int      // audio sheds anywhere in the faulted run (must be 0)
	VideoShed int      // video sheds on the congested port
	Restores  int      // restores on the congested port
	ShedOrder []uint32 // VCIs shed on the congested port before the first restore
	// OldestFirst reports the initial shed ladder took the
	// longest-routed video stream first (principle 3 at the fabric).
	OldestFirst bool
	// PortIsolated reports every audio delivery into an uncongested
	// port matched the fault-free run's, mixer digest and segment count
	// (principle 5 across the fabric).
	PortIsolated bool
	CleanSheds   int // sheds in the fault-free run (must be 0)
	// ForwardedBytes / CleanBytes are the fabric's aggregate delivered
	// payload in the faulted and fault-free runs.
	ForwardedBytes uint64
	CleanBytes     uint64
	InjectedFaults uint64
	// Fingerprint is the faulted run's scenario.Runner.Fingerprint: two
	// runs with the same seed must produce byte-identical fingerprints.
	Fingerprint string
}

const (
	e22Boxes = 16
	e22Sink  = "n15"     // where every video band converges
	e22Port  = "fab.p15" // its fabric port: ports are numbered in attach order
)

// e22Spec is one 16-box fabric conference (%d: the seed). Three
// staggered video bands all aim at the last box, and the fault schedule
// targets that box's fabric port alone.
const e22Spec = `
scenario e22
seed %d
duration 5s
# n00–n02 source the video bands; n15's display assembles the three
# 256-wide bands.
box n00 mic=speech:1:12000 jitter camera=256x192
box n01 mic=speech:2:12000 jitter camera=256x192
box n02 mic=speech:3:12000 jitter camera=256x192
box n03 mic=speech:4:12000 jitter
box n04 mic=speech:5:12000 jitter
box n05 mic=speech:6:12000 jitter
box n06 mic=speech:7:12000 jitter
box n07 mic=speech:8:12000 jitter
box n08 mic=speech:9:12000 jitter
box n09 mic=speech:10:12000 jitter
box n10 mic=speech:11:12000 jitter
box n11 mic=speech:12:12000 jitter
box n12 mic=speech:13:12000 jitter
box n13 mic=speech:14:12000 jitter
box n14 mic=speech:15:12000 jitter
box n15 mic=speech:16:12000 jitter camera=256x192
# A deliberately small egress bound: two virtual-second outages on one
# port are enough to drive its queue past the controller's high water
# without troubling the other fifteen.
fabric fab egress=4096
attach fab n[00..15]
faults burst=0.005/4,jitter=200us/400us,stallwin=1s-1600ms,stallwin=3s-3600ms,target=fab.p15
degrade shed=120ms hold=600ms
at 0s conference n[00..15] as c
# Three full-rate video bands from three different boxes, opened 200 ms
# apart so ages differ, all converging on the last box's port — the
# port the fault schedule then congests.
at 0ms video n00 -> n15 rect=0,0,256,64 rate=1/1 as v0
at 200ms video n01 -> n15 rect=0,64,256,64 rate=1/1 as v1
at 400ms video n02 -> n15 rect=0,128,256,64 rate=1/1 as v2
`

// E22 runs the fabric experiment at the default seed.
func E22() (*Table, *FabricResult) { return E22Fabric(42) }

// E22Fabric meshes a 16-box audio conference through the switching
// fabric, aims three staggered video bands at one box, and injects a
// fault schedule (burst loss, jitter, two stall outages) on that box's
// port alone — then reads the run's fault-free twin. The faulted
// port's controller sheds its video oldest-first and never audio,
// while every audio stream every other box receives is byte-identical
// between the two runs (Runner.Survivors): a slow output degrades only
// its own port, across the whole fabric (principle 5).
func E22Fabric(seed uint64) (*Table, *FabricResult) {
	t := &Table{
		ID:     "E22",
		Title:  "Per-port degradation across the switching fabric",
		Paper:  "a slow output degrades only its own port; video before audio, oldest first (§2.1, principle 5)",
		Header: []string{"measure", "value"},
	}
	fl := runScenario(fmt.Sprintf(e22Spec, seed))
	defer fl.Close()
	clean := must(fl.CleanTwin())

	res := &FabricResult{Boxes: e22Boxes}
	cleanAudio, cleanVideo, cleanRestores := clean.Sheds()
	res.CleanSheds = cleanAudio + cleanVideo + cleanRestores
	res.AudioShed, _, _ = fl.Sheds()
	_, res.VideoShed, res.Restores = fl.Sheds(e22Port)
	res.ShedOrder, res.OldestFirst = fl.ShedLadder(e22Port)
	if len(res.ShedOrder) == 0 || res.ShedOrder[0] != fl.Streams["v0"].VCI(e22Sink) {
		res.OldestFirst = false
	}

	checked, mismatched, _ := fl.Survivors(clean, e22Sink)
	res.PortIsolated = checked > 0 && mismatched == 0
	res.ForwardedBytes = fl.Sys.Fabric("fab").Stats().Bytes
	res.CleanBytes = clean.Sys.Fabric("fab").Stats().Bytes
	cf := fl.Sys.FabricPort(e22Sink).Stats()
	res.InjectedFaults = cf.Fault.Total()
	res.Fingerprint = must(fl.Fingerprint())

	t.Add("boxes on the fabric", fmt.Sprintf("%d (%d audio streams, 3 video bands)",
		e22Boxes, e22Boxes*(e22Boxes-1)))
	t.Add("congested port", fmt.Sprintf("%s (faults: %d drops, %d delays, %d stalls)",
		e22Port, cf.Fault.Drops, cf.Fault.Delays, cf.Fault.Stalls))
	t.Add("video shed on congested port", fmt.Sprintf("%d (order %v, restores %d)",
		res.VideoShed, res.ShedOrder, res.Restores))
	t.Add("audio shed anywhere", fmt.Sprintf("%d", res.AudioShed))
	t.Add("uncongested ports byte-identical", fmt.Sprintf("%v (%d ports)",
		res.PortIsolated, e22Boxes-1))
	t.Add("aggregate delivered", fmt.Sprintf("%.2f MB of %.2f MB fault-free (%.1f%%)",
		float64(res.ForwardedBytes)/1e6, float64(res.CleanBytes)/1e6,
		100*float64(res.ForwardedBytes)/float64(res.CleanBytes)))
	t.Remark("faulting one fabric port sheds that port's video oldest-first and leaves the other fifteen ports' delivery byte-identical")
	return t, res
}

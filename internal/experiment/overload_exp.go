package experiment

import (
	"fmt"

	"repro/internal/atm"
)

// OverloadResult is E21's machine-readable outcome, used by the tests.
type OverloadResult struct {
	AudioShed int      // controller sheds of audio streams (must be 0)
	VideoShed int      // controller sheds of video streams
	Restores  int      // controller restores after recovery
	ShedOrder []uint32 // stream ids in shed order, before the first restore
	// OldestFirst reports that the initial shed sequence took the
	// longest-open video stream first (principle 3).
	OldestFirst bool
	AudioLost   uint64  // audio segments lost end to end
	SilencePct  float64 // % of played audio blocks that were silence fills
	// InjectedFaults totals every link-level fault that fired (loss,
	// corruption, duplication, delay, stall).
	InjectedFaults uint64
	// WireNews is the total wire-buffer allocations across both boxes;
	// recycling bounds it regardless of how many segments flow.
	WireNews uint64
	// Fingerprint is the run's scenario.Runner.Fingerprint: two runs
	// with the same seed must produce byte-identical fingerprints.
	Fingerprint string
}

// E21 runs the overload experiment at the default seed.
func E21() (*Table, *OverloadResult) { return E21Overload(42) }

// E21Overload overloads one box's network interface with three
// staggered video streams plus audio, under injected link faults, with
// the degradation controller enabled — the full §2.1 policy on
// display: video is shed before audio, oldest stream first, and every
// injected fault and shed is visible as an obs counter.
func E21Overload(seed uint64) (*Table, *OverloadResult) {
	t := &Table{
		ID:     "E21",
		Title:  "Overload degradation under injected faults",
		Paper:  "video degrades before audio; the oldest streams degrade first; boxes adapt locally (§2.1)",
		Header: []string{"measure", "value"},
	}
	// netif=3500k is the first limit exceeded in normal operation
	// (§3.7.1): an interface too slow for three full-rate video bands.
	// Deterministic link faults — burst loss, light duplication, jitter
	// — ride on the spec's seed, and the three video bands open 400 ms
	// apart so ages differ and "oldest first" is observable.
	r := runScenario(fmt.Sprintf(`
scenario e21
seed %d
duration 6s
box a mic=tone:400:10000 camera=256x192 netif=3500k
box b camera=256x192
link a b bw=100M
faults burst=0.002/3,dup=0.002,jitter=300us/600us
degrade shed=150ms hold=800ms
at 0s audio a -> b as audio
at 0s video a -> b rect=0,0,256,64 rate=1/1 as v0
at 400ms video a -> b rect=0,64,256,64 rate=1/1 as v1
at 800ms video a -> b rect=0,128,256,64 rate=1/1 as v2
`, seed))
	defer r.Close()
	s := r.Sys
	audio := r.Streams["audio"]

	res := &OverloadResult{}

	// Controller decisions (only box "a" is under pressure, but count
	// every box — audio sheds anywhere would break principle 2).
	res.AudioShed, res.VideoShed, res.Restores = r.Sheds()
	res.ShedOrder, res.OldestFirst = r.ShedLadder("a")
	if len(res.ShedOrder) == 0 || res.ShedOrder[0] != r.Streams["v0"].Local {
		res.OldestFirst = false
	}

	// Audio quality at the destination.
	m := s.Box("b").Mixer().Stats(audio.VCI("b"))
	res.AudioLost = m.LostSegments
	if m.Blocks > 0 {
		res.SilencePct = 100 * float64(m.Clawback.SilenceInserted) / float64(m.Blocks)
	}

	// Every injected fault, straight off the link counters.
	var fs atm.FaultStats
	for _, l := range s.Net.Links() {
		fs.Add(l.FaultStats())
	}
	res.InjectedFaults = fs.Total()

	aGets, aNews, _ := s.Box("a").WirePoolStats()
	bGets, bNews, _ := s.Box("b").WirePoolStats()
	res.WireNews = aNews + bNews
	res.Fingerprint = must(r.Fingerprint())

	swA := s.Box("a").SwitchStats()
	t.Add("audio segments played", fmt.Sprintf("%d (lost %d, silence %.2f%%)",
		m.Segments, res.AudioLost, res.SilencePct))
	t.Add("audio streams shed", fmt.Sprintf("%d", res.AudioShed))
	t.Add("video streams shed", fmt.Sprintf("%d (order %v)", res.VideoShed, res.ShedOrder))
	t.Add("restores after recovery", fmt.Sprintf("%d", res.Restores))
	t.Add("segments stopped at the switch", fmt.Sprintf("%d", swA.ShedDrops))
	t.Add("injected link faults", fmt.Sprintf("%d (loss %d, dup %d, delay %d)",
		res.InjectedFaults, fs.Drops, fs.Duplicates, fs.Delays))
	t.Add("wire allocations", fmt.Sprintf("%d (of %d uses)", res.WireNews, aGets+bGets))
	t.Remark("audio survives untouched while the overload controller sheds video, oldest stream first")
	return t, res
}

package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// linkPressureSpec congests one pairwise link: two 128x64 video bands
// at full rate need more than the link's 1.2 Mbit/s, so its 24-message
// queue fills and the sender's controller sheds a band, restores it
// after the hold, and sheds again.
const linkPressureSpec = `scenario link-pressure
seed 1
duration 3s
box a mic=speech:1:12000 camera=128x128
box b mic=speech:2:12000 camera=128x128
link a b bw=1200k queue=24
degrade shed=150ms hold=400ms
at 0s call a b as c
at 0s video a -> b rect=0,0,128,64 rate=1/1 as v1
at 0s video a -> b rect=0,64,128,64 rate=1/1 as v2
`

// controlPlaneDigest runs sc in 5 ms steps and folds every degrade_*
// and balancer_* sample of each step's snapshot — name, labels and
// value, with the snapshot's instant — into one FNV-1a word. each, when
// non-nil, sees every snapshot.
func controlPlaneDigest(t *testing.T, sc *Scenario, each func(obs.Snapshot)) uint64 {
	t.Helper()
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start(nil)
	h := uint64(14695981039346656037)
	fold := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			fold(byte(v >> (8 * i)))
		}
	}
	for at := time.Duration(0); at < sc.Duration; at += 5 * time.Millisecond {
		if err := r.RunFor(5 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		snap := r.Sys.Obs.Snapshot()
		if each != nil {
			each(snap)
		}
		word(uint64(snap.At))
		for _, sm := range snap.Samples {
			if !strings.HasPrefix(sm.Name, "degrade_") && !strings.HasPrefix(sm.Name, "balancer_") {
				continue
			}
			for _, b := range []byte(sm.ID()) {
				fold(b)
			}
			word(math.Float64bits(sm.Value))
		}
	}
	return h
}

// TestControlPlanePin pins what the overload controllers and the
// balancer read and decide, 5 ms step by 5 ms step: the balance and
// soak suites, and a pairwise link whose queue fills. A change to what
// the controllers read, or when, moves a digest.
func TestControlPlanePin(t *testing.T) {
	load := func(path string) *Scenario {
		sc, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	var depth, sheds, restores float64
	link := obs.L("link", "a-b.0")
	watchLink := func(s obs.Snapshot) {
		d, _ := s.Get("atm_link_queue_depth", link)
		depth = max(depth, d.Value)
		sm, _ := s.Get("degrade_shed_total", obs.L("box", "a"), obs.L("media", "video"))
		sheds = sm.Value
		sm, _ = s.Get("degrade_restore_total", obs.L("box", "a"))
		restores = sm.Value
	}
	for _, tc := range []struct {
		name string
		sc   *Scenario
		each func(obs.Snapshot)
		want uint64
	}{
		{"balance", load("../../scenarios/balance.scn"), nil, 0x6d675d1a7ce34510},
		{"soak", load("../../scenarios/soak.scn"), nil, 0x1ca4411f55a5b202},
		{"link-pressure", MustParse(linkPressureSpec), watchLink, 0x3bcac32d088f825d},
	} {
		if got := controlPlaneDigest(t, tc.sc, tc.each); got != tc.want {
			t.Errorf("%s: control-plane digest %#x, want %#x", tc.name, got, tc.want)
		}
	}
	// The link spec is worth pinning only while it exercises the link
	// read: its queue fills, and the controller both sheds and restores.
	if depth < 24 || sheds < 1 || restores < 1 {
		t.Errorf("link-pressure: queue peaked at %v/24 with %v sheds and %v restores; want 24, ≥ 1, ≥ 1", depth, sheds, restores)
	}
}

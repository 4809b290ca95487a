package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/golden"
)

// churnPinSpec creates instruments while the run goes on: a call set up,
// torn down and set up again, a tree that pulls late joiners and repairs
// around an interior box, a video stream whose fabric port overloads so
// its controller sheds it at 140 ms, restores it at 240 ms and sheds it
// again, and an audio board that crashes and comes back.
const churnPinSpec = `scenario registry-churn
seed 11
duration 300ms
box src mic=speech:1:12000
box v[1..6]
box a mic=speech:2:12000 jitter crash=audio:60ms-120ms
box b mic=speech:3:12000 camera=128x128
box c mic=speech:4:12000
box x mic=speech:5:12000 camera=128x128
box y mic=speech:6:12000
fabric f portbw=2M
attach f src v[1..6] a b c
fabric g portbw=400k egress=128
attach g x y
degrade shed=20ms hold=40ms
at 0s call a b as c1
at 0s tree src -> v[1..4] k=2 as t
at 0s video b -> c rect=0,0,128,64 rate=1/1 as vid
at 0s call x y as xy
at 0s video x -> y rect=0,0,128,128 rate=1/1 as w
at 40ms pull t v5,v6
at 80ms close c1[0]
at 80ms close c1[1]
at 110ms repair t v1
at 140ms call a b as c2
at 190ms call c a as c3
at 230ms close vid
`

// TestRegistryPinAcrossChurn pins the whole registry at 100, 200 and
// 300 ms of churnPinSpec, as Prometheus text: the instruments of
// streams, trees and controllers that appear mid-run, and what each
// reads at each instant.
func TestRegistryPinAcrossChurn(t *testing.T) {
	r, err := NewRunner(MustParse(churnPinSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start(nil)
	var b strings.Builder
	for i := 0; i < 3; i++ {
		if err := r.RunFor(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		b.WriteString(r.Sys.Obs.Snapshot().Prometheus())
	}
	prom := b.String()
	for _, line := range []string{"fault_crash_drops_total", "tree_repairs_total", "degrade_shed_total", "degrade_restore_total"} {
		if !strings.Contains(prom, "\n"+line) {
			t.Errorf("the pin lacks %s", line)
		}
	}
	golden.Check(t, "testdata/registry_churn.golden", prom)
}

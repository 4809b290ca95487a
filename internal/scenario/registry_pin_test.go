package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/golden"
)

// registryPinSpec touches every instrument family the system registers:
// a fabric under a k=4 tree and a call, a video stream, a jitter- and
// muting-enabled box with a crash window, a box with a sink stall, link
// faults, the degrade ladder and the balancer.
const registryPinSpec = `scenario registry-pin
seed 5
duration 300ms
box src mic=speech:1:12000 camera=128x128 sinkstall=100ms-140ms
box v[1..5]
box a mic=speech:2:12000 jitter muting interface crash=audio:120ms-160ms
box b mic=speech:3:12000
fabric f portbw=2M
attach f src v[1..5] a b
faults burst=0.02/3,jitter=1ms/500us
degrade shed=60ms hold=120ms
balance budget=2 interval=20ms
at 0s tree src -> v[1..5] k=4 as t
at 0s call a b as c
at 0s video src -> v1 rect=0,0,128,64 rate=1/1 as vid
`

// TestRegistryPin pins the whole registry after 300 ms of
// registryPinSpec, as Prometheus text: every family and label set, each
// value, and the histograms' buckets. A change to what is registered,
// under which name, or what it reads moves a line.
func TestRegistryPin(t *testing.T) {
	r, err := NewRunner(MustParse(registryPinSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start(nil)
	if err := r.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	prom := r.Sys.Obs.Snapshot().Prometheus()
	for _, family := range []string{"allocator_free", "allocator_total", "decouple_limit", "audio_playout_latency_ms_bucket",
		"fault_crash_drops_total", "degrade_", "balancer_", "fabric_", "display_frames_total"} {
		if !strings.Contains(prom, "\n"+family) {
			t.Errorf("the pin lacks %s", family)
		}
	}
	golden.Check(t, "testdata/registry_pin.golden", prom)
}

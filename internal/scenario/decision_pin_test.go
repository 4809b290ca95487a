package scenario

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// busySwitchSpec has box a's controller shed and restore while a's
// switch is busy. Two full-rate video bands fill the slow link's queue,
// and at 311 kbit/s each of b's call segments reaches a's switch 3.6 µs
// before a 4 ms instant and is charged across it: the controller's
// samples land on that grid, so its command waits for the switch to
// finish the segment.
const busySwitchSpec = `scenario busy-switch
seed 1
duration 2s
box a mic=speech:1:12000 camera=128x128
box b mic=speech:2:12000 camera=128x128
link a b bw=311k queue=24
degrade shed=60ms hold=200ms
at 0s call a b as c
at 0s video a -> b rect=0,0,128,64 rate=1/1 as v1
at 0s video a -> b rect=0,64,128,64 rate=1/1 as v2
`

// decisionDigest runs sc to its end and folds, into one FNV-1a word,
// every controller's decision log — in controller-name order, each
// action's instant, stream, class, direction, kind and the two
// pressures behind it — and then every box's switch_shed_drops_total
// and mixer_shed_drops_total. trace, when non-nil, receives the
// scheduler's trace lines.
func decisionDigest(t *testing.T, sc *Scenario, trace func(string)) uint64 {
	t.Helper()
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start(nil)
	r.Sys.RT.Trace = trace
	if err := r.RunFor(sc.Duration); err != nil {
		t.Fatal(err)
	}
	r.Sys.RT.Trace = nil
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
	flag := func(b bool) {
		if b {
			fold(1)
		} else {
			fold(0)
		}
	}
	names := make([]string, 0, len(r.Ctrls))
	for name := range r.Ctrls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, b := range []byte(name) {
			fold(b)
		}
		for _, a := range r.Ctrls[name].Actions() {
			word(uint64(a.At))
			word(uint64(a.Stream))
			flag(a.Video)
			flag(a.Incoming)
			flag(a.Restore)
			word(math.Float64bits(a.VideoPressure))
			word(math.Float64bits(a.AudioPressure))
		}
	}
	for _, sm := range r.Sys.Obs.Snapshot().Samples {
		if sm.Name != "switch_shed_drops_total" && sm.Name != "mixer_shed_drops_total" {
			continue
		}
		for _, b := range []byte(sm.ID()) {
			fold(b)
		}
		word(math.Float64bits(sm.Value))
	}
	return h
}

// TestDegradeDecisionPin pins every overload decision — when, on which
// stream, on what pressures — and what the sheds stopped at the switch
// and the mixer, over the soak and balance suites and a box whose
// controller sheds while its switch is busy.
func TestDegradeDecisionPin(t *testing.T) {
	load := func(path string) *Scenario {
		sc, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	// The busy-switch spec is worth pinning only while a shed command
	// there waits on the switch: the scheduler trace shows a's
	// controller parked sending on a's switch command channel.
	parked := 0
	watch := func(line string) {
		if strings.Contains(line, "park a.degrade: send a.switchcmd") {
			parked++
		}
	}
	for _, tc := range []struct {
		name  string
		sc    *Scenario
		trace func(string)
		want  uint64
	}{
		{"soak", load("../../scenarios/soak.scn"), nil, 0xb4b36c5f4e854a8c},
		{"balance", load("../../scenarios/balance.scn"), nil, 0x4d0b44186dc380ca},
		{"busy-switch", MustParse(busySwitchSpec), watch, 0xaa55ea70e43ed3e9},
	} {
		if got := decisionDigest(t, tc.sc, tc.trace); got != tc.want {
			t.Errorf("%s: decision digest %#x, want %#x", tc.name, got, tc.want)
		}
	}
	if parked == 0 {
		t.Errorf("busy-switch: a's controller never parked on its switch; the spec no longer reaches the case it pins")
	}
}

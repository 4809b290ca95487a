package scenario

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/box"
	"repro/internal/workload"
)

// representative covers every directive and clause the grammar has:
// multi-hop links, fabrics, feeds, cross traffic, every event op,
// crash and stall windows, faults, degradation and assertions.
const representative = `
# exercising the whole grammar
scenario rep
seed 42
duration 10s
box a mic=tone:400:10000 camera=256x128 blocks=3 netif=3500k interleave jitter muting interface
box b mic=speech:7:12000 sharednet crash=audio:1s-1600ms crash=server:2s-2200ms sinkstall=3s-3300ms
box c
box d
link a b bw=100M prop=50us queue=8 loss=0.002 lseed=9 / bw=8M prop=3ms / bw=64k
link c d bw=2500k
fabric fab portbw=155M prop=2us egress=4096
attach fab a b c d
feed a n=6 base=100
cross a b hop=1 vci=9000 seed=7 gap=12ms size=2000+4000
at 0s audio a -> b,c as main
at 100ms video a -> b rect=0,64,256,64 rate=2/5 segs=2 as vid
at 200ms call c d as cd
at 300ms conference a b c d as conf
at 1s split main d
at 2s drop main d
at 3s close vid
at 400ms tree a -> b,c,d k=2 trees=2 as t1
at 450ms pull t1 d
at 470ms repair t1 b
at 500ms netsend a -> b stream=7 vci=2000
faults burst=0.002/3,dup=0.002,jitter=300us/600us,target=fab.p00
degrade shed=150ms hold=800ms
assert no-audio-shed
assert video-shed 2
assert shed-order-oldest-first fab.p00
assert survivors-identical
assert wires-drain
assert gauge-zero degrade_pressure_audio
assert gauge-max degrade_pressure_video 3
assert min-segments main 200
assert max-lost main 0
assert max-silence-pct main 5
assert faults-fired
assert circuits a 3
assert copies-max a 2
`

// roundTrip checks Parse ∘ Format is the identity on the parsed form
// and that Format is a fixed point.
func roundTrip(t *testing.T, name, text string) {
	t.Helper()
	sc, err := Parse(text)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	printed := sc.Format()
	sc2, err := Parse(printed)
	if err != nil {
		t.Fatalf("%s: reparse of Format output: %v\n%s", name, err, printed)
	}
	if !reflect.DeepEqual(sc, sc2) {
		t.Fatalf("%s: parse(format(sc)) differs from sc\nformatted:\n%s", name, printed)
	}
	if printed2 := sc2.Format(); printed2 != printed {
		t.Fatalf("%s: Format not a fixed point:\n%s\nvs\n%s", name, printed, printed2)
	}
}

func TestRoundTripRepresentative(t *testing.T) {
	roundTrip(t, "representative", representative)
}

// TestBoxConfig maps every box line of the representative spec — which
// spells every box key the grammar has — onto box.Config: each key
// lands in its field, absent keys stay zero for box's own defaults,
// and the crash/sinkstall windows are left to the Runner.
func TestBoxConfig(t *testing.T) {
	want := []box.Config{
		{
			Name: "a", Mic: workload.NewTone(400, 10000), CameraW: 256, CameraH: 128,
			BlocksPerSegment: 3, NetInterfaceBits: 3_500_000, InterleaveNetwork: true,
			Features: box.Features{JitterCorrection: true, Muting: true, Interface: true},
		},
		{Name: "b", Mic: workload.NewSpeech(7, 12000), SharedNetBuffer: true},
		{Name: "c"},
		{Name: "d"},
	}
	sc := MustParse(representative)
	if len(sc.Boxes) != len(want) {
		t.Fatalf("%d boxes parsed, want %d", len(sc.Boxes), len(want))
	}
	for i, b := range sc.Boxes {
		if got := b.Config(); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("box %s: Config() = %+v, want %+v", b.Name, got, want[i])
		}
	}
	if b := sc.Boxes[1]; len(b.Crashes) != 2 || len(b.SinkStalls) != 1 {
		t.Fatalf("box b lost its fault windows: %+v", b)
	}
}

// suiteFiles returns the shipped scenario suite files.
func suiteFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../../scenarios/*.scn")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario suite files found: %v", err)
	}
	return files
}

func TestRoundTripSuites(t *testing.T) {
	for _, f := range suiteFiles(t) {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, filepath.Base(f), string(text))
	}
}

// TestSuitesMatchGolden executes every shipped suite and compares its
// assertion summary byte-for-byte against the checked-in golden file —
// the same diff the CI scenario-smoke job performs via pandora-sim.
func TestSuitesMatchGolden(t *testing.T) {
	for _, f := range suiteFiles(t) {
		base := strings.TrimSuffix(filepath.Base(f), ".scn")
		t.Run(base, func(t *testing.T) {
			if (base == "soak" || base == "flashcrowd") && testing.Short() {
				t.Skip("long suite")
			}
			sc, err := Load(f)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := Execute(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !sum.Pass {
				t.Errorf("suite failed:\n%s", sum)
			}
			golden, err := os.ReadFile("../../scenarios/golden/" + base + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			if sum.String() != string(golden) {
				t.Errorf("summary differs from golden file:\n got:\n%s\nwant:\n%s", sum, golden)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		text string
		want string
	}{
		{"scenario x\nduration 1s\nbogus y", `line 3 ("bogus y")`},
		{"scenario x\nduration 1s\nbox a\nlink a b bw=1M", "unknown box"},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=nope", "bit rate"},
		{"scenario x\nduration 1s\nbox a\nat 0s close main", `unopened stream "main"`},
		{"scenario x\nduration 1s\nbox a\nbox b\nat 2s call a b", "outside the run"},
		{"scenario x\nduration 1s\nbox a\nfaults burst=oops", "faultinject: token"},
		{"scenario x\nduration 1s\nbox a\nbox b\nat 0s pull main b", `unopened stream "main"`},
		{"scenario x\nduration 1s\nbox a\nbox b\nat 0s repair main b", `unopened stream "main"`},
		{"scenario x\nduration 1s\nbox a\nbox b\nat 0s tree a -> b k=-1", "non-negative"},
		{"scenario x\nduration 1s\nbox a\nbox b\nat 0s tree a -> b trees=0", "positive"},
		{"scenario x\nduration 1s\nassert made-up-kind", "unknown assert kind"},
		{"duration 1s", "missing name"},
		// Former fabric knobs, now constants of internal/fabric.
		{"scenario x\nduration 1s\nfabric f ingress=64", `line 3 ("fabric f ingress=64"): unknown fabric clause "ingress"`},
		{"scenario x\nduration 1s\nfabric f batch=4", `line 3 ("fabric f batch=4"): unknown fabric clause "batch"`},
		{"scenario x\nduration 1s\nfabric f\nfabric g speedup=2", `line 4 ("fabric g speedup=2"): unknown fabric clause "speedup"`},
	}
	for _, c := range cases {
		if _, err := Parse(c.text); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.text, err, c.want)
		}
	}
}

// TestRunnerTimelineDeltas pins the timeline semantics the refactored
// experiments depend on: event times are offsets between command
// issues, so a command's own virtual-time cost pushes later events
// back rather than eating their gaps.
func TestRunnerTimelineDeltas(t *testing.T) {
	sc := MustParse(`
scenario deltas
duration 2s
box a mic=tone:400:8000
box b
link a b bw=100M
at 0s audio a -> b as first
at 100ms audio b -> a as second
`)
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start(nil)
	if err := r.RunFor(sc.Duration); err != nil {
		t.Fatal(err)
	}
	if r.Streams["first"] == nil || r.Streams["second"] == nil {
		t.Fatalf("streams not recorded: %v", r.Streams)
	}
	m := r.Sys.Box("b").Mixer().Stats(r.Streams["first"].VCIs["b"])
	if m.Segments == 0 {
		t.Fatal("no audio delivered")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("no-such-file.scn"); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestExecuteSummaryDeterministic(t *testing.T) {
	text := `
scenario det
duration 1s
box a mic=tone:400:8000
box b
link a b bw=100M
at 0s audio a -> b as main
assert min-segments main 100
assert wires-drain
`
	run := func() string {
		sum, err := Execute(MustParse(text))
		if err != nil {
			t.Fatal(err)
		}
		return sum.String()
	}
	first := run()
	if !strings.Contains(first, "det: PASS") {
		t.Fatalf("expected PASS:\n%s", first)
	}
	if second := run(); second != first {
		t.Fatalf("two runs differ:\n%s\nvs\n%s", first, second)
	}
}

// TestFlashcrowdExpansion pins what scenarios/flashcrowd.scn means:
// the SHA-256 of its parsed form's Format(), recorded from the 1 071-
// line longhand file (a thousand `box vNNNN` lines, forty 25-name pull
// lines) before ranges and waves shrank it. The short file is the long
// file.
func TestFlashcrowdExpansion(t *testing.T) {
	const want = "a566c0ff6d17dda9be47fbef8f73ebbb80679cc6ecb80ed804a2b9bc10a1e3c5"
	sc, err := Load("../../scenarios/flashcrowd.scn")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Boxes) != 1001 || len(sc.Events) != 41 {
		t.Fatalf("%d boxes, %d events; want 1001 and 41", len(sc.Boxes), len(sc.Events))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(sc.Format()))); got != want {
		t.Fatalf("Format() SHA-256 = %s, want %s", got, want)
	}
}

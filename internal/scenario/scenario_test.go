package scenario

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/balancer"
	"repro/internal/box"
	"repro/internal/degrade"
	"repro/internal/faultinject"
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
box e
link a b bw=100M prop=50us queue=8 loss=0.002 lseed=9 / bw=8M prop=3ms / bw=64k
link c d bw=2500k
link a e bw=10M / bw=2M
fabric fab portbw=155M prop=2us egress=4096
attach fab a b c d
feed a n=6 base=100
cross a e hop=1 vci=9000 seed=7 gap=12ms size=2000+4000
at 0s audio a -> b,c as main
at 100ms video a -> b rect=0,64,256,64 rate=2/5 segs=2 as vid
at 200ms call c d as cd
at 300ms conference a b c d as conf
at 1s pull main d
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
// lands in its field, crash windows included, absent keys stay zero for
// box's own defaults, the mic is built by Mic.Source, and the sinkstall
// windows are left to the Runner.
func TestBoxConfig(t *testing.T) {
	want := []box.Config{
		{
			Name: "a", Mic: workload.NewTone(400, 10000), CameraW: 256, CameraH: 128,
			BlocksPerSegment: 3, NetInterfaceBits: 3_500_000, InterleaveNetwork: true,
			Features: box.Features{JitterCorrection: true, Muting: true, Interface: true},
		},
		{Name: "b", Mic: workload.NewSpeech(7, 12000), SharedNetBuffer: true, Crashes: map[string][]faultinject.Window{
			"audio":  {{From: time.Second, To: 1600 * time.Millisecond}},
			"server": {{From: 2 * time.Second, To: 2200 * time.Millisecond}},
		}},
		{Name: "c"},
		{Name: "d"},
		{Name: "e"},
	}
	sc := MustParse(representative)
	if len(sc.Boxes) != len(want) {
		t.Fatalf("%d boxes parsed, want %d", len(sc.Boxes), len(want))
	}
	for i, b := range sc.Boxes {
		got := b.Config
		got.Mic = b.Mic.Source()
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("box %s: Config = %+v, want %+v", b.Name, got, want[i])
		}
	}
	if b := sc.Boxes[1]; len(b.SinkStalls) != 1 {
		t.Fatalf("box b lost its sinkstall window: %+v", b)
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
			sum, err := execute(sc)
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
		// A crash names a board the box has, and is written on its box
		// line: a faults line holds link faults only.
		{"scenario x\nduration 1s\nbox a crash=sever:50ms-250ms", `box a crash=sever:50ms-250ms"): crash wants BOARD:FROM-TO with BOARD one of server, audio, display, got "sever:50ms-250ms"`},
		{"scenario x\nduration 1s\nbox a\nfaults crash=server:50ms-250ms", `faultinject: token 1 ("crash=server:50ms-250ms") at char 0: "crash" is a box's fault window, not a link fault: write crash=BOARD:FROM-TO or sinkstall=FROM-TO on the box line`},
		{"scenario x\nduration 1s\nbox a\nfaults loss,sink", `token 2 ("sink") at char 5: "sink" is a box's fault window`},
		{"scenario x\nduration 1s\nbox a\nfaults sink=1s-2s,crash", `token 1 ("sink=1s-2s") at char 0: "sink" is a box's fault window`},
		{"scenario x\nduration 1s\nbox a\nbox b\nat 0s pull main b", `unopened stream "main"`},
		{"scenario x\nduration 1s\nbox a\nbox b\nat 0s repair main b", `unopened stream "main"`},
		// A closed stream is named by no later event: its plan is gone.
		{"scenario x\nduration 1s\nbox a mic=tone:400:8000\nbox b\nbox c\nfabric f\nattach f a b c\nat 50ms audio a -> b as s\nat 100ms close s\nat 150ms pull s c", `event 3 (pull at 150ms) names stream "s" after its close`},
		{"scenario x\nduration 1s\nbox a\nbox b\nfabric f\nattach f a b\nat 50ms call a b as k\nat 100ms close k\nat 150ms close k[1]", `event 3 (close at 150ms) names stream "k[1]" after its close`},
		{"scenario x\nduration 1s\nbox a\nbox b\nat 0s tree a -> b k=-1", "non-negative"},
		{"scenario x\nduration 1s\nbox a\nbox b\nat 0s tree a -> b trees=0", "positive"},
		{"scenario x\nduration 1s\nassert made-up-kind", "unknown assert kind"},
		{"duration 1s", "missing name"},
		// Former fabric knobs, now constants of internal/fabric.
		{"scenario x\nduration 1s\nfabric f ingress=64", `line 3 ("fabric f ingress=64"): unknown fabric clause "ingress"`},
		{"scenario x\nduration 1s\nfabric f batch=4", `line 3 ("fabric f batch=4"): unknown fabric clause "batch"`},
		{"scenario x\nduration 1s\nfabric f\nfabric g speedup=2", `line 4 ("fabric g speedup=2"): unknown fabric clause "speedup"`},
		// Topologies core.System would panic on while building or opening.
		{"scenario x\nduration 1s\nbox a\nbox b\nfabric f\nfabric g\nattach f a b\nattach g b", "node b attached to fabric f and again to fabric g"},
		{"scenario x\nduration 1s\nbox a\nfabric f\nattach f a a", "node a attached to fabric f and again to fabric f"},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nlink a b bw=2M", "link a b: a pair of distinct boxes takes one link"},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nlink b a bw=1M", "link b a: a pair of distinct boxes takes one link"},
		{"scenario x\nduration 1s\nbox a\nlink a a bw=1M", "link a a: a pair of distinct boxes takes one link"},
		{"scenario x\nduration 1s\nbox a\nbox b\nbox c\nlink a b bw=1M\nat 0s audio a -> b,c", "no path from a to c"},
		{"scenario x\nduration 1s\nbox a camera=64x64\nbox c\nat 0s video a -> c rect=0,0,64,64 rate=1/1", "no path from a to c"},
		{"scenario x\nduration 1s\nbox a\nbox c\nfabric f\nattach f a\nat 0s call a c", "no path from a to c"},
		{"scenario x\nduration 1s\nbox a\nbox b\nbox c\nfabric f\nfabric g\nattach f a b\nattach g c\nat 0s conference a b c", "no path from a to c"},
		{"scenario x\nduration 1s\nbox a\nbox c\nat 0s netsend a -> c stream=5 vci=9", "no path from a to c"},
		{"scenario x\nduration 1s\nbox a\nbox c\nat 0s tree a -> c", "no path from a to c"},
		// Attaches core's planner would make over no path: a member on
		// a stripe only another stripe's member reaches, a member past
		// every reaching relay's k, and a split of a flat stream, whose
		// one feeder is its source.
		{"scenario x\nduration 1s\nbox s mic=tone:400:9000\nbox a\nbox b\nbox c\nlink s a bw=10M\nlink a b bw=10M\nat 0s tree s -> a,b k=2 trees=2", "event 1 (tree at 0s): no path to b from the tree's source, and no member of its tree with fewer than k=2 children reaches it"},
		{"scenario x\nduration 1s\nbox s mic=tone:400:9000\nbox a\nbox b\nbox c\nlink s a bw=10M\nlink a b bw=10M\nlink a c bw=10M\nat 0s tree s -> a,b,c k=1", "event 1 (tree at 0s): no path to c from the tree's source, and no member of its tree with fewer than k=1 children reaches it"},
		{"scenario x\nduration 1s\nbox s mic=tone:400:9000\nbox a\nbox b\nbox c\nlink s a bw=10M\nlink a b bw=10M\nat 0s audio s -> a as t\nat 10ms pull t b", "event 2 (pull at 10ms): no path from s to b"},
		// Ranges and waves are bounded input handling: errors, never allocations.
		{"scenario x\nduration 1s\nbox v[5..1]", `line 3 ("box v[5..1]"): range "v[5..1]": upper bound below lower`},
		{"scenario x\nduration 1s\nbox v[1..10]", "same number of digits"},
		{"scenario x\nduration 1s\nbox v[0..4000000000]", "same number of digits"},
		{"scenario x\nduration 1s\nbox v[a..b]", "bounds must be unsigned integers"},
		{"scenario x\nduration 1s\nbox v[..3]", "bounds must be unsigned integers"},
		{"scenario x\nduration 1s\nbox v[000000..999999]", "at most 100000 names"},
		{"scenario x\nduration 1s\nbox v[00001..60000]\nfabric f\nattach f v[00001..60000]", `line 5 ("attach f v[00001..60000]"): range "v[00001..60000]": a spec's ranges may stand for at most 100000 names`},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s audio a -> b wave=0/1ms", "wave wants N/DUR"},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s audio a -> b wave=2/0s", "wave wants N/DUR"},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s audio a -> b wave=2/-1ms", "wave wants N/DUR"},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s audio a -> b wave=2", "wave wants N/DUR"},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat soon audio a -> b wave=2/1ms", `event time "soon"`},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s call a b wave=2/1ms", "call wants: A B"},
		// Control-plane ranges: 0 selects a default, below 0 is an error.
		{"scenario x\nduration 1s\ndegrade shed=-5ms", `line 3 ("degrade shed=-5ms"): degrade shed=-5ms hold=0s: periods must be ≥ 0`},
		{"scenario x\nduration 1s\nbalance interval=-1ms", `line 3 ("balance interval=-1ms"): balance interval=-1ms cooldown=0s: periods must be ≥ 0`},
		{"scenario x\nduration 1s\nbalance budget=-1", `line 3 ("balance budget=-1"): balance budget=-1 maxmig=0: counts must be ≥ 0`},
		{"scenario x\nduration 1s\nbalance migrate=1.5", `line 3 ("balance migrate=1.5"): balance migrate=1.5: want a ratio in [0,1]`},
		{"scenario x\nduration 1s\nbalance migrate=NaN", "balance migrate=NaN: want a ratio in [0,1]"},
		// A clause or an "as REF" the op does not own: Format would drop it.
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s audio a -> b k=3", `unknown audio clause "k"`},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s tree a -> b rate=1/2", `unknown tree clause "rate"`},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s netsend a -> b stream=1 vci=7 as n", "netsend opens no stream, so takes no as REF"},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s netsend a -> b stream=1 vci=77\nat 1ms netsend a -> b stream=2 vci=77", "event 2 (netsend at 1ms): vci=77 is an earlier netsend's"},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s netsend a -> b stream=1 vci=1048576", "event 1 (netsend at 0s): vci=1048576: a fabric routes VCIs below 1048576"},
		// Clauses mean what they say.
		{"scenario x\nduration 1s\nbox a jitter=false", `box flag "jitter" takes no value`},
		{"scenario x\nduration 1s\nbox a blocks=2 blocks=3", `box clause "blocks" given twice`},
		{"scenario x\nduration 1s\nbox a\nfeed a n=1 base=4294967296", `base wants an unsigned 32-bit integer, got "4294967296"`},
		// cross is checked before it runs.
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\ncross a b hop=5 vci=9 seed=1 gap=1ms size=1+1", "cross a b: hop=5 is not a hop of their 1-hop link"},
		{"scenario x\nduration 1s\nbox a\nbox b\nfabric f\nattach f a b\ncross a b hop=0 vci=9 seed=1 gap=1ms size=1+1", "cross a b: wants a link between them and no shared fabric"},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nfabric f\nattach f a b\ncross a b hop=0 vci=9 seed=1 gap=1ms size=1+1", "cross a b: wants a link between them and no shared fabric"},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\ncross a b hop=0 vci=9 seed=1 gap=1ms size=-1+5", `size wants a non-negative integer, got "-1"`},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\ncross a b hop=0 vci=9 seed=1 gap=-1ms size=1+1", `gap wants a non-negative duration, got "-1ms"`},
		// Asserts are checked against their row.
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s audio a -> b as m\nassert min-segments m", "assert min-segments: want assert min-segments REF N"},
		{"scenario x\nduration 1s\nbox a\nassert copies-max nobox 3", `assert copies-max refers to unknown box "nobox"`},
		{"scenario x\nduration 1s\nbox a\nassert max-lost x 0", `assert max-lost refers to unopened stream "x"`},
		{"scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s audio a -> b as m\nassert min-segments n 1", `assert min-segments refers to unopened stream "n"`},
		{"scenario x\nduration 1s\nbox a\nassert spread x 2", `assert spread refers to unopened stream "x"`},
	}
	for _, c := range cases {
		if _, err := Parse(c.text); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.text, err, c.want)
		}
	}
}

// TestValidateOwnsControlPlaneRanges: a spec built in Go meets the same
// range checks as a spec file — the control plane's and a link's loss —
// and zero still selects the defaults.
func TestValidateOwnsControlPlaneRanges(t *testing.T) {
	spec := func(d *degrade.Config, b *balancer.Config) *Scenario {
		return &Scenario{Name: "x", Duration: time.Second, Degrade: d, Balance: b}
	}
	for _, c := range []struct {
		sc   *Scenario
		want string
	}{
		{spec(&degrade.Config{ShedEvery: -5 * time.Millisecond}, nil), "scenario x: degrade shed=-5ms hold=0s: periods must be ≥ 0"},
		{spec(&degrade.Config{Hold: -time.Millisecond}, nil), "scenario x: degrade shed=0s hold=-1ms: periods must be ≥ 0"},
		{spec(nil, &balancer.Config{Budget: -1}), "scenario x: balance budget=-1 maxmig=0: counts must be ≥ 0"},
		{spec(nil, &balancer.Config{MaxMigrations: -1}), "counts must be ≥ 0"},
		{spec(nil, &balancer.Config{Cooldown: -time.Second}), "periods must be ≥ 0"},
		{spec(nil, &balancer.Config{MigrateHighWater: -0.5}), "want a ratio in [0,1]"},
		{spec(&degrade.Config{}, &balancer.Config{}), ""},
		{&Scenario{Name: "x", Duration: time.Second, Boxes: []Box{{Config: box.Config{Name: "a"}}, {Config: box.Config{Name: "b"}}}, Links: []Link{{From: "a", To: "b", Hops: []atm.LinkConfig{{LossRate: 1.5}}}}},
			"scenario x: link a b hop 0: loss wants a probability, got 1.5"},
	} {
		_, err := NewRunner(c.sc)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("NewRunner(%+v, %+v) error = %v, want %q", c.sc.Degrade, c.sc.Balance, err, c.want)
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
	m := r.Sys.Box("b").Mixer().Stats(r.Streams["first"].VCI("b"))
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
		sum, err := execute(MustParse(text))
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

// TestExpansionEqualsLonghand spells every range and wave form, in
// every position that accepts one, next to the longhand it stands for:
// both must parse to the same Scenario.
func TestExpansionEqualsLonghand(t *testing.T) {
	const head = "scenario x\nduration 1s\n"
	cases := []struct{ name, short, long string }{
		{"box range shares the line's clauses",
			"box b[08..11] jitter blocks=3",
			"box b08 jitter blocks=3\nbox b09 jitter blocks=3\nbox b10 jitter blocks=3\nbox b11 jitter blocks=3"},
		{"unpadded and single-name ranges",
			"box c[0..2]\nbox d[7..7]",
			"box c0\nbox c1\nbox c2\nbox d7"},
		{"bounds at the top of uint64",
			"box v[18446744073709551614..18446744073709551615]",
			"box v18446744073709551614\nbox v18446744073709551615"},
		{"attach nodes",
			"box s\nbox a[1..3]\nfabric f\nattach f s a[1..2] a3",
			"box s\nbox a1\nbox a2\nbox a3\nfabric f\nattach f s a1 a2 a3"},
		{"conference members, ref kept",
			"box a[1..3]\nfabric f\nattach f a[1..3]\nat 0s conference a[1..3] as conf",
			"box a1\nbox a2\nbox a3\nfabric f\nattach f a1 a2 a3\nat 0s conference a1 a2 a3 as conf"},
		{"audio destinations",
			"box s\nbox a[1..3]\nfabric f\nattach f s a[1..3]\nat 0s audio s -> a3,a[1..2] as m",
			"box s\nbox a1\nbox a2\nbox a3\nfabric f\nattach f s a1 a2 a3\nat 0s audio s -> a3,a1,a2 as m"},
		{"video destinations",
			"box s camera=64x64\nbox a[1..2]\nfabric f\nattach f s a[1..2]\nat 0s video s -> a[1..2] rect=0,0,64,64 rate=1/2 as v",
			"box s camera=64x64\nbox a1\nbox a2\nfabric f\nattach f s a1 a2\nat 0s video s -> a1,a2 rect=0,0,64,64 rate=1/2 as v"},
		{"tree destinations",
			"box s\nbox a[1..3]\nfabric f\nattach f s a[1..3]\nat 0s tree s -> a[1..3] k=2 as t",
			"box s\nbox a1\nbox a2\nbox a3\nfabric f\nattach f s a1 a2 a3\nat 0s tree s -> a1,a2,a3 k=2 as t"},
		{"pull destinations",
			"box s\nbox a[1..3]\nfabric f\nattach f s a[1..3]\nat 0s tree s -> a1 k=2 as t\nat 10ms pull t a[2..3]",
			"box s\nbox a1\nbox a2\nbox a3\nfabric f\nattach f s a1 a2 a3\nat 0s tree s -> a1 k=2 as t\nat 10ms pull t a2,a3"},
		{"pull in waves, ragged last wave",
			"box s\nbox a[1..6]\nfabric f\nattach f s a[1..6]\nat 0s tree s -> a1 k=2 as t\nat 10ms pull t a[2..6] wave=2/25ms",
			"box s\nbox a1\nbox a2\nbox a3\nbox a4\nbox a5\nbox a6\nfabric f\nattach f s a1 a2 a3 a4 a5 a6\nat 0s tree s -> a1 k=2 as t\nat 10ms pull t a2,a3\nat 35ms pull t a4,a5\nat 60ms pull t a6"},
		{"wave over a longhand list, clauses kept",
			"box s\nbox a1\nbox a2\nbox a3\nfabric f\nattach f s a1 a2 a3\nat 100ms tree s -> a1,a2,a3 wave=1/1ms k=2",
			"box s\nbox a1\nbox a2\nbox a3\nfabric f\nattach f s a1 a2 a3\nat 100ms tree s -> a1 k=2\nat 101ms tree s -> a2 k=2\nat 102ms tree s -> a3 k=2"},
		{"audio and video in waves",
			"box s camera=64x64\nbox a[1..2]\nfabric f\nattach f s a[1..2]\nat 0s audio s -> a[1..2] wave=1/5ms\nat 0s video s -> a[1..2] rect=0,0,64,64 rate=1/2 wave=1/5ms",
			"box s camera=64x64\nbox a1\nbox a2\nfabric f\nattach f s a1 a2\nat 0s audio s -> a1\nat 5ms audio s -> a2\nat 0s video s -> a1 rect=0,0,64,64 rate=1/2\nat 5ms video s -> a2 rect=0,0,64,64 rate=1/2"},
		{"a wave wider than the list is one event; brackets without .. are a plain name",
			"box s\nbox a[1]\nfabric f\nattach f s a[1]\nat 7ms audio s -> a[1] wave=9/1ms as m[0]",
			"box s\nbox a[1]\nfabric f\nattach f s a[1]\nat 7ms audio s -> a[1] as m[0]"},
	}
	for _, c := range cases {
		short, err := Parse(head + c.short)
		if err != nil {
			t.Errorf("%s: short form: %v", c.name, err)
			continue
		}
		if long := MustParse(head + c.long); !reflect.DeepEqual(short, long) {
			t.Errorf("%s: short form parsed to\n%s\nlonghand to\n%s", c.name, short.Format(), long.Format())
		}
		roundTrip(t, c.name, head+c.short)
	}
}

// TestValidateRejectsUnreachableTreeMembers: a tree member or a pulled
// joiner that neither the source nor any member so far shares a fabric
// or a link with would be fed by the source over no path, and so would
// the orphan of a drop or a repair whose only reaching relay is the one
// it leaves. Validate runs core's plan and names the event instead of
// the run meeting the refusal.
func TestValidateRejectsUnreachableTreeMembers(t *testing.T) {
	for _, c := range []struct{ name, text, want string }{
		{"pull to an unattached box", `scenario pull-off
duration 100ms
box a mic=tone:400:8000
box b
box c
fabric f
attach f a b
at 0s tree a -> b k=2 as t
at 10ms pull t c
`, "scenario pull-off: event 2 (pull at 10ms): no path to c from the tree's source or any member"},
		{"tree over two unbridged fabrics", `scenario two-fabrics
duration 100ms
box a mic=tone:400:8000
box b
box c
fabric f
attach f a b
fabric g
attach g c
at 0s tree a -> b,c k=2 as t
`, "scenario two-fabrics: event 1 (tree at 0s): no path to c from the tree's source or any member"},
		{"a bridge link from a member reaches the far fabric", `scenario bridged
duration 100ms
box a mic=tone:400:8000
box b
box c
box d
fabric f
attach f a b
fabric g
attach g c d
link b c bw=100M
at 0s tree a -> b,c k=2 as t
at 10ms pull t d
`, ""},
		{"drop the relay of an orphan only it reaches", `scenario rehome-drop
duration 100ms
box s mic=tone:400:8000
box a
box b
link s a bw=10M
link a b bw=10M
at 0s tree s -> a,b k=1 as t
at 10ms drop t a
`, "scenario rehome-drop: event 2 (drop at 10ms): cannot re-home b off a: the tree's source does not reach it"},
		{"repair the relay of an orphan only it reaches", `scenario rehome-repair
duration 100ms
box s mic=tone:400:8000
box a
box b
link s a bw=10M
link a b bw=10M
at 0s tree s -> a,b k=1 as t
at 10ms repair t a
`, "scenario rehome-repair: event 2 (repair at 10ms): cannot re-home b off a: the tree's source does not reach it"},
	} {
		_, err := Parse(c.text)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: Parse error = %v, want %q", c.name, err, c.want)
		}
	}
}

package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// faultLists is the fault language (the faults directive and
// pandora-sim -faults) as a table: each list and the Spec it parses to,
// printed with %#v under master seed 7, or — for a list that is
// rejected — the position the error names, "token N ("TOK") at char
// C". An error's body after that position comes from the clause codecs
// and is not pinned here; the unknown-word body is pinned by
// pandora-sim's faults-bogus golden.
var faultLists = []struct{ list, want string }{
	// Every canned word, and all.
	{"loss", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0.01, BurstLen:4, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"corrupt", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0.01, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"dup", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0.005, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"jitter", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:1000000, JitterStddev:2000000, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"stall", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:1000000000, StallFor:150000000, Seed:0x0}, Target:"", Seed:0x7}`},
	{"all", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0.01, BurstLen:4, Corrupt:0.01, Duplicate:0.005, JitterMean:1000000, JitterStddev:2000000, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	// Every key=value form, both optional tails, target= and seed=.
	{"burst=0.2", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0.2, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"burst=0.2/7", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0.2, BurstLen:7, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"corrupt=0.3", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0.3, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"dup=1", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:1, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"jitter=3ms", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:3000000, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"jitter=3ms/4ms", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:3000000, JitterStddev:4000000, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"jitter=-1ms/2ms", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:-1000000, JitterStddev:2000000, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"stall=2s/100ms", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:2000000000, StallFor:100000000, Seed:0x0}, Target:"", Seed:0x7}`},
	{"stall=-1s/1s", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:-1000000000, StallFor:1000000000, Seed:0x0}, Target:"", Seed:0x7}`},
	{"stallwin=1s-2s,stallwin=3s-3500ms", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window{faultinject.Window{From:1000000000, To:2000000000}, faultinject.Window{From:3000000000, To:3500000000}}, StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"target=fab.p03", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"fab.p03", Seed:0x7}`},
	{"target=", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"seed=99", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x63}`},
	{"all,target=a-b,seed=5", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0.01, BurstLen:4, Corrupt:0.01, Duplicate:0.005, JitterMean:1000000, JitterStddev:2000000, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"a-b", Seed:0x5}`},
	// Canned then override, override then canned, repeats, empty
	// tokens and spaces.
	{"loss,burst=0.5", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0.5, BurstLen:4, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"burst=0.5/9,loss", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0.01, BurstLen:4, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"jitter,jitter=5ms", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:5000000, JitterStddev:2000000, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"stall,stall=3s/1s", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:3000000000, StallFor:1000000000, Seed:0x0}, Target:"", Seed:0x7}`},
	{"loss,loss,seed=3,seed=4,corrupt=0.2,corrupt=0.4", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0.01, BurstLen:4, Corrupt:0.4, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x4}`},
	{" loss, ,corrupt,,", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0.01, BurstLen:4, Corrupt:0.01, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{"", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	{",,", `faultinject.Spec{Link:faultinject.LinkConfig{BurstEnter:0, BurstLen:0, Corrupt:0, Duplicate:0, JitterMean:0, JitterStddev:0, Stalls:[]faultinject.Window(nil), StallEvery:0, StallFor:0, Seed:0x0}, Target:"", Seed:0x7}`},
	// One input for each error class.
	{"bogus", `token 1 ("bogus") at char 0`},
	{"loss,rate=1", `token 2 ("rate=1") at char 5`},
	{"loss=1", `token 1 ("loss=1") at char 0`},
	{"corrupt=2", `token 1 ("corrupt=2") at char 0`},
	{"dup=-0.1", `token 1 ("dup=-0.1") at char 0`},
	{"burst=0.1/0", `token 1 ("burst=0.1/0") at char 0`},
	{"burst=0.1/2/3", `token 1 ("burst=0.1/2/3") at char 0`},
	{"jitter=x", `token 1 ("jitter=x") at char 0`},
	{"jitter=1ms/x", `token 1 ("jitter=1ms/x") at char 0`},
	{"stall=1s", `token 1 ("stall=1s") at char 0`},
	{"stall=x/1s", `token 1 ("stall=x/1s") at char 0`},
	{"stall=1s/x", `token 1 ("stall=1s/x") at char 0`},
	{"stallwin=2s", `token 1 ("stallwin=2s") at char 0`},
	{"seed=-1", `token 1 ("seed=-1") at char 0`},
	{"seed=", `token 1 ("seed=") at char 0`},
	{"loss,  dup=x", `token 2 ("dup=x") at char 7`},
	{"loss, ,  bogus", `token 3 ("bogus") at char 9`},
}

// TestFaultLanguage parses every list of faultLists through NewRunner,
// the path a spec's faults directive takes, and compares.
func TestFaultLanguage(t *testing.T) {
	for _, c := range faultLists {
		sc := &Scenario{Name: "f", Seed: 7, Duration: time.Second, Faults: c.list}
		r, err := NewRunner(sc)
		got := ""
		if err != nil {
			got, _, _ = strings.Cut(strings.TrimPrefix(err.Error(), "scenario f: faults: faultinject: "), ": ")
		} else {
			got = fmt.Sprintf("%#v", r.FaultSpec)
		}
		if got != c.want {
			t.Errorf("faults %q:\n got  %s\n want %s", c.list, got, c.want)
		}
	}
}

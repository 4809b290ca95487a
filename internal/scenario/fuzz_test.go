package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenarioParse feeds arbitrary text to the parser. Any input the
// parser accepts must round-trip: Format's output re-parses to a
// deeply equal scenario and Format is a fixed point. Run longer with:
//
//	go test -fuzz=FuzzScenarioParse -fuzztime=30s ./internal/scenario
func FuzzScenarioParse(f *testing.F) {
	f.Add(representative)
	files, _ := filepath.Glob("../../scenarios/*.scn")
	for _, file := range files {
		if text, err := os.ReadFile(file); err == nil {
			f.Add(string(text))
		}
	}
	f.Add("scenario x\nduration 1s\nbox a\n")
	f.Add("scenario x\nduration 1s\nbox a mic=tone:1:2 crash=audio:1s-2s\n")
	// Fault lists: rows, canned words, repeats and empty tokens; box
	// windows with an unknown board, and in more than one list.
	f.Add("scenario x\nduration 1s\nbox a\nfaults loss, ,stallwin=5s-6s,stall,target=a-,seed=3\n")
	f.Add("scenario x\nduration 1s\nbox a\nfaults burst=0.2/7,jitter=-1ms,stall=1s/10ms,stallwin=1s-2s,all,all\n")
	f.Add("scenario x\nduration 1s\nbox a crash=sever:1s-2s sinkstall=2s-1s\n")
	f.Add("scenario x\nduration 1s\nbox a crash=display:1s-2s crash=audio:0s-1ms sinkstall=1s-2s sinkstall=3s-4s\n")
	// Ranges and waves, valid and hostile: expansion must stay bounded
	// and what it accepts must print as longhand that parses back.
	f.Add("scenario x\nduration 1s\nbox s\nbox v[01..12] jitter\nfabric f\nattach f s v[01..12]\n" +
		"at 0s tree s -> v01 k=2 as t\nat 1ms pull t v[02..12] wave=3/2ms\nat 0s conference v[01..03] as c\n")
	f.Add("scenario x\nduration 1s\nbox v[0..4000000000]\n")
	f.Add("scenario x\nduration 1s\nbox v[0000000000..4000000000]\n")
	f.Add("scenario x\nduration 1s\nbox v[18446744073709551610..18446744073709551615]\nbox [9..1]\nbox x[1..2][1..2]\n")
	f.Add("scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s audio a -> b,b[..] wave=0/0s as wave=1/1s\n")
	// Clauses and refs an op does not own, which Format used to drop.
	f.Add("scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s audio a -> b k=3\n")
	f.Add("scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s tree a -> b rate=1/2\n")
	f.Add("scenario x\nduration 1s\nbox a\nbox b\nlink a b bw=1M\nat 0s netsend a -> b stream=1 vci=7 as n\n")
	f.Fuzz(func(t *testing.T, text string) {
		sc, err := Parse(text)
		if err != nil {
			return // rejected input is fine; it must just not panic
		}
		printed := sc.Format()
		sc2, err := Parse(printed)
		if err != nil {
			t.Fatalf("Format output rejected: %v\ninput: %q\nformatted:\n%s", err, text, printed)
		}
		if !reflect.DeepEqual(sc, sc2) {
			t.Fatalf("round trip changed the scenario\ninput: %q\nformatted:\n%s", text, printed)
		}
		if printed2 := sc2.Format(); printed2 != printed {
			t.Fatalf("Format not a fixed point\nfirst:\n%s\nsecond:\n%s", printed, printed2)
		}
	})
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/golden"
)

// TestGolden pins the binary's whole output — stdout with the one
// wall-clock line dropped, then stderr and the exit status — for
// fourteen flag-mode invocations recorded at commit 0bc3240, the
// negative -seconds that used to run the clock backwards, the
// negative -balance-budget that used to run as "(budget -1)", and a
// scenario pulling a box onto a tree that cannot reach it, which used to
// panic.
func TestGolden(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"mesh", "-boxes 4 -seconds 1 -trace 100000"},
		{"fabric", "-boxes 4 -seconds 1 -trace 100000 -fabric"},
		{"video-muting", "-boxes 3 -video -muting -stats -trace 40"},
		{"fabric-faults-degrade", "-boxes 4 -fabric -faults all -degrade -stats"},
		{"balance", "-boxes 3 -balance -trace 30"},
		{"sink-stall", "-boxes 2 -seconds 3 -faults sink=1s-1500ms -stats"},
		{"faults-prom", "-boxes 3 -seconds 2 -faults all -stats -prom -trace 200"},
		{"loss", "-boxes 2 -seconds 2 -loss 0.05"},
		{"fabric-budget", "-boxes 6 -fabric -balance -balance-budget 1"},
		{"fabric-stall-target", "-boxes 8 -fabric -faults stall,target=fab.p01 -degrade"},
		{"loss-crash-degrade", "-faults loss,crash -degrade -trace 40"},
		{"one-box", "-boxes 1"},
		{"seconds-0", "-seconds 0"},
		{"seconds-negative", "-boxes 2 -seconds -1"},
		{"faults-bogus", "-faults bogus"},
		{"balance-budget-negative", "-balance -balance-budget -1"},
		{"scenario-unreachable-pull", "-scenario testdata/unreachable-pull.scn"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden.Check(t, "testdata/"+tc.name+".golden", output(tc.args))
		})
	}
}

// output runs the binary's main on args and returns everything it
// showed but the one wall-clock line.
func output(args string) string {
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields(args), &stdout, &stderr)
	var got strings.Builder
	for _, l := range strings.SplitAfter(stdout.String(), "\n") {
		if !strings.HasPrefix(l, "done in ") {
			got.WriteString(l)
		}
	}
	fmt.Fprintf(&got, "--- stderr ---\n%s--- exit %d ---\n", stderr.String(), code)
	return got.String()
}

// TestProfileFlags: both kinds of run write both profiles and print
// what they print without them; a profile that cannot be written is an
// error, not a silent omission.
func TestProfileFlags(t *testing.T) {
	for _, args := range []string{"-boxes 2 -seconds 1 -stats", "-scenario ../../scenarios/churn.scn"} {
		cpu, mem := t.TempDir()+"/cpu.pprof", t.TempDir()+"/mem.pprof"
		if got, want := output(args+" -cpuprofile "+cpu+" -memprofile "+mem), output(args); got != want {
			t.Errorf("%s: output with the profile flags differs:\n%s", args, got)
		}
		for _, path := range []string{cpu, mem} {
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("%s: profile %s not written: %v", args, path, err)
			}
		}
		if got := output(args + " -cpuprofile " + t.TempDir() + "/no/such/dir/cpu.pprof"); !strings.Contains(got, "no such file") || !strings.HasSuffix(got, "--- exit 1 ---\n") {
			t.Errorf("%s: an unwritable profile gave:\n%s", args, got)
		}
	}
}

// TestScenarioFlag drives the -scenario path of the binary: the churn
// suite's summary on stdout must be the checked-in scenarios/golden
// file that internal/scenario's TestSuitesMatchGolden also pins.
func TestScenarioFlag(t *testing.T) {
	want, err := os.ReadFile("../../scenarios/golden/churn.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "../../scenarios/churn.scn"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if stdout.String() != string(want) {
		t.Errorf("summary differs from scenarios/golden/churn.txt:\n%s", stdout.String())
	}
}

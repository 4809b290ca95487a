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
// fourteen flag-mode invocations recorded at commit 0bc3240.
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
		{"faults-bogus", "-faults bogus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(strings.Fields(tc.args), &stdout, &stderr)
			var got strings.Builder
			for _, l := range strings.SplitAfter(stdout.String(), "\n") {
				if !strings.HasPrefix(l, "done in ") {
					got.WriteString(l)
				}
			}
			fmt.Fprintf(&got, "--- stderr ---\n%s--- exit %d ---\n", stderr.String(), code)
			golden.Check(t, "testdata/"+tc.name+".golden", got.String())
		})
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

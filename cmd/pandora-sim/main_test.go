package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

// TestGolden pins the binary's whole output — stdout, then stderr and
// the exit status — for eleven spec twins of the flag-built conferences
// that commit 0bc3240 recorded (each testdata/NAME.scn describes the
// system the old flags built, and prints its report lines unchanged), a
// two-box call over a lossy link traced event by event (the events
// series pandora-trace printed as TSV at commit 0bc3240), a scenario
// pulling a box onto a tree that cannot reach it, which used to
// panic, a balanced scenario whose plan refuses a member at run time,
// seven specs that ask for what the old flag probes asked for (one box,
// no or a negative run length, an unknown fault, a negative budget, a
// loss past 1, a lossy fabric), each an error, and a run with no spec,
// a usage error.
func TestGolden(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"mesh", "-scenario testdata/mesh.scn -trace 100000"},
		{"fabric", "-scenario testdata/fabric.scn -trace 100000"},
		{"video-muting", "-scenario testdata/video-muting.scn -stats -trace 40"},
		{"fabric-faults-degrade", "-scenario testdata/fabric-faults-degrade.scn -stats"},
		{"balance", "-scenario testdata/balance.scn -trace 30"},
		{"sink-stall", "-scenario testdata/sink-stall.scn -stats"},
		{"faults-prom", "-scenario testdata/faults-prom.scn -stats -prom -trace 200"},
		{"loss", "-scenario testdata/loss.scn"},
		{"fabric-budget", "-scenario testdata/fabric-budget.scn"},
		{"fabric-stall-target", "-scenario testdata/fabric-stall-target.scn"},
		{"loss-crash-degrade", "-scenario testdata/loss-crash-degrade.scn -trace 40"},
		{"trace-events", "-scenario testdata/trace-events.scn -trace 100"},
		{"scenario-unreachable-pull", "-scenario testdata/unreachable-pull.scn"},
		{"scenario-refused", "-scenario testdata/refused-attach.scn"},
		{"one-box", "-scenario testdata/one-box.scn"},
		{"seconds-0", "-scenario testdata/seconds-0.scn"},
		{"seconds-negative", "-scenario testdata/seconds-negative.scn"},
		{"faults-bogus", "-scenario testdata/faults-bogus.scn"},
		{"balance-budget-negative", "-scenario testdata/balance-budget-negative.scn"},
		{"loss-out-of-range", "-scenario testdata/loss-out-of-range.scn"},
		{"fabric-loss", "-scenario testdata/fabric-loss.scn"},
		{"no-scenario", "-stats"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden.Check(t, "testdata/"+tc.name+".golden", output(tc.args))
		})
	}
}

// output runs the binary's main on args and returns everything it
// showed.
func output(args string) string {
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields(args), &stdout, &stderr)
	return fmt.Sprintf("%s--- stderr ---\n%s--- exit %d ---\n", stdout.String(), stderr.String(), code)
}

// TestProfileFlags: a run writes both profiles and prints what it
// prints without them; a profile that cannot be written is an error,
// not a silent omission.
func TestProfileFlags(t *testing.T) {
	const args = "-scenario ../../scenarios/churn.scn -stats"
	cpu, mem := t.TempDir()+"/cpu.pprof", t.TempDir()+"/mem.pprof"
	if got, want := output(args+" -cpuprofile "+cpu+" -memprofile "+mem), output(args); got != want {
		t.Errorf("output with the profile flags differs:\n%s", got)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written: %v", path, err)
		}
	}
	if got := output(args + " -cpuprofile " + t.TempDir() + "/no/such/dir/cpu.pprof"); !strings.Contains(got, "no such file") || !strings.HasSuffix(got, "--- exit 1 ---\n") {
		t.Errorf("an unwritable profile gave:\n%s", got)
	}
}

// TestScenarioFlag runs every shipped suite through the binary: each
// exits 0, and its report ends with the summary scenarios/golden pins,
// which internal/scenario's TestSuitesMatchGolden also checks.
func TestScenarioFlag(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.scn")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario suite files found: %v", err)
	}
	for _, f := range files {
		base := strings.TrimSuffix(filepath.Base(f), ".scn")
		t.Run(base, func(t *testing.T) {
			if (base == "soak" || base == "flashcrowd") && testing.Short() {
				t.Skip("long suite")
			}
			want, err := os.ReadFile("../../scenarios/golden/" + base + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-scenario", f}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if !strings.HasSuffix(stdout.String(), "\n"+string(want)) {
				t.Errorf("report does not end with scenarios/golden/%s.txt:\n%s", base, stdout.String())
			}
		})
	}
}

// TestSpecObservability: a spec run prints its report, the summary,
// then what -stats, -prom and -trace ask for, in that order.
func TestSpecObservability(t *testing.T) {
	summary, err := os.ReadFile("../../scenarios/golden/churn.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("-scenario ../../scenarios/churn.scn -stats -prom -trace 20"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	report, rest, ok := strings.Cut(out, string(summary))
	if !ok || !strings.Contains(report, "a → b: ") {
		t.Fatalf("no per-stream report before the churn summary:\n%s", out)
	}
	table := strings.Index(rest, "\n# snapshot at t+4s\n")
	promText := strings.Index(rest, "\n# TYPE ")
	if table < 0 || promText < table {
		t.Fatalf("want the counter table, then the Prometheus text, after the summary:\n%s", rest)
	}
	lines := strings.Split(strings.TrimSuffix(rest, "\n"), "\n")
	events := lines[len(lines)-20:]
	for _, l := range events {
		if !strings.HasPrefix(l, "[") {
			t.Fatalf("want 20 trace events last, got:\n%s", strings.Join(events, "\n"))
		}
	}
	if l := lines[len(lines)-21]; l != "" {
		t.Errorf("want exactly 20 trace events after a blank line, the line before them is %q", l)
	}
}

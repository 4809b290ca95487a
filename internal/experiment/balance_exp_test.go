package experiment

import (
	"strings"
	"testing"
)

// TestE24BalancerControlPlane asserts the full acceptance surface:
// admission refuses exactly the over-budget calls, the hot relay is
// migrated off mid-stream in both twins, audio is never shed, the
// post-crash repair adopters avoid the hot box first-fit would pick,
// and every surviving delivery is byte-identical with the fault-free
// twin.
func TestE24BalancerControlPlane(t *testing.T) {
	_, res := E24()
	if !res.AssertsPass {
		t.Error("scenario asserts failed in at least one twin")
	}
	if res.Admitted != 2 || res.Rejected != 2 {
		t.Errorf("admission: %d admitted, %d rejected; want 2/2", res.Admitted, res.Rejected)
	}
	if !res.MigrationOk || res.Migrations != 1 || res.MigratedOff != e24Hot {
		t.Errorf("migration: %d off %q (both twins ok=%v); want exactly 1 off %s in both",
			res.Migrations, res.MigratedOff, res.MigrationOk, e24Hot)
	}
	if res.AudioSheds != 0 {
		t.Errorf("%d audio sheds; audio must never be shed", res.AudioSheds)
	}
	if res.VideoSheds == 0 {
		t.Error("no video sheds: the degrade ladder never engaged, so the shed-ordering claim is vacuous")
	}
	if !res.AdoptersCool {
		t.Errorf("repair adopters %v re-adopted hot %s (or the hot box was not drained/nothing re-homed)",
			res.RepairAdopters, e24Hot)
	}
	if res.Rehomed == 0 {
		t.Error("the repair re-homed nothing")
	}
	if res.Spread < 4 {
		t.Errorf("feeder spread %d; want ≥ 4", res.Spread)
	}
	if !res.Identical || res.Survivors == 0 {
		t.Errorf("byte-identity: identical=%v over %d survivors (%d excluded)",
			res.Identical, res.Survivors, res.Excluded)
	}
}

// TestE24DeterministicReplay runs the faulted churn twice at the same
// seed: the balancer's sampling, placement, admission and migration
// decisions must replay to the byte.
func TestE24DeterministicReplay(t *testing.T) {
	a, b := e24Run(7), e24Run(7)
	defer a.Close()
	defer b.Close()
	if sa, sb := must(a.Evaluate()).String(), must(b.Evaluate()).String(); sa != sb {
		t.Errorf("assert summaries diverged:\n%s\nvs\n%s", sa, sb)
	}
	fa, fb := must(a.Fingerprint()), must(b.Fingerprint())
	if fa == "" {
		t.Fatal("empty fingerprint")
	}
	if fa != fb {
		t.Errorf("replay diverged:\n%s\nvs\n%s", fa, fb)
	}
	if n := len(a.Bal.Migrations()); n != 1 {
		t.Errorf("seed 7: %d migrations, want 1", n)
	}
}

// TestE24ScoreboardChurnRace drives the whole churn — scoreboard ticks,
// placement callbacks from tree attach and repair, admission from the
// timeline, and the mid-stream migration — under the race detector
// when CI runs `go test -race`. The balancer is lock-free by design
// (every update runs inside the virtual-time runtime), so this is the
// test that proves the serialization actually holds.
func TestE24ScoreboardChurnRace(t *testing.T) {
	r := e24Run(11)
	defer r.Close()
	if n := len(r.Bal.Migrations()); n != 1 {
		t.Errorf("seed 11: %d migrations, want 1", n)
	}
	if sum := must(r.Evaluate()); !sum.Pass {
		t.Errorf("seed 11 asserts failed:\n%s", sum)
	}
}

// TestE24BooksMatchWhatHappened: the run holds one migration (off hot
// n00) and one repair (around crashed n01), and that is what the books
// say — the migration is no repair, no trace calls n00 failed — while
// the move history still covers the members of both.
func TestE24BooksMatchWhatHappened(t *testing.T) {
	r := e24Run(42)
	defer r.Close()
	snap := r.Sys.Obs.Snapshot()
	if got := snap.Total("tree_repairs_total"); got != 1 {
		t.Errorf("tree_repairs_total = %v, want 1", got)
	}
	if got := snap.Total("balancer_migrations_total"); got != 1 {
		t.Errorf("balancer_migrations_total = %v, want 1", got)
	}
	var moves []string
	for _, ev := range r.Sys.Obs.Tracer().Events() {
		if ev.Source == "core.tree" {
			moves = append(moves, ev.Detail)
		}
	}
	if len(moves) != 2 || !strings.HasSuffix(moves[0], "hot "+e24Hot) || !strings.HasSuffix(moves[1], "failed "+e24Crash) {
		t.Errorf("core.tree trace = %q, want a move off hot %s then one around failed %s", moves, e24Hot, e24Crash)
	}
	plan := r.Streams["t"].Tree
	for _, from := range []string{e24Hot, e24Crash} {
		moved := plan.RehomedFrom(from)
		if len(moved) == 0 {
			t.Errorf("no member recorded as moved away from %s", from)
		}
		for _, m := range moved {
			if !plan.EverUnder(m, from) {
				t.Errorf("EverUnder(%s, %s) lost the move", m, from)
			}
		}
	}
}

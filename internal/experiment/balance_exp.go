package experiment

import (
	"fmt"

	"repro/internal/scenario"
	"repro/scenarios"
)

// BalanceResult is E24's machine-readable outcome, asserted by the
// tests: the balancer control plane placing, admitting, and migrating
// under load while the data plane stays byte-deterministic.
type BalanceResult struct {
	Boxes   int // every box including sources
	Viewers int // tree members
	// Admission: the budget holds two concurrent calls; the timeline
	// offers four, so exactly two must be refused outright — reject
	// before degrade.
	Budget   int
	Admitted uint64
	Rejected uint64
	// Migration: the video flood congests the relay's port and the
	// balancer re-homes its tree children mid-stream, before any
	// degrade shed and before the crash window opens.
	Migrations  int
	MigratedOff string
	MigrationOk bool // exactly one, off the hot box, in both twins
	AudioSheds  int  // must stay zero: only video is ever shed
	VideoSheds  int
	// Repair: with the balancer active, RepairTree's adopter scan is
	// load-driven. First-fit would re-adopt the hot box (it has spare
	// fanout and sits first in placement order); the balancer must not.
	FirstFitPick   string
	RepairAdopters []string
	AdoptersCool   bool // no adopter is the hot box
	Rehomed        int
	Spread         int // distinct feeder boxes after repair
	// Byte-identity between the faulted run and its fault-free twin,
	// over every delivery that never crossed the crashed box.
	Excluded    int
	Survivors   int
	Identical   bool
	AssertsPass bool
	Fingerprint string
}

const (
	e24Hot   = "n00" // tree root relay the video flood congests
	e24Crash = "n01" // interior box whose server board crashes
)

// e24Run plays scenarios/balance.scn — the one copy of E24's spec; its
// comments say why each line is there — at the experiment's seed.
func e24Run(seed uint64) *scenario.Runner {
	sc := scenario.MustParse(scenarios.Balance)
	sc.Seed = seed
	r := must(scenario.NewRunner(sc))
	if err := r.Run(); err != nil {
		panic(err)
	}
	return r
}

// E24 runs the balancer control-plane experiment at the default seed.
func E24() (*Table, *BalanceResult) { return E24Balance(42) }

// E24Balance drives the balancer control plane through churn: a
// ten-viewer replication tree, four calls against an admission budget
// of two, a video flood that congests the root relay's fabric port,
// and a mid-stream server-board crash. The balancer must reject the
// over-budget calls outright, migrate the hot relay's tree children
// off it between segments (before the degrade ladder touches the
// video, and with audio never shed at all), and steer the post-crash
// RepairTree adopters away from the still-hot box that plain first-fit
// would have picked. Every delivery that never crossed the crashed box
// stays byte-identical with the fault-free twin.
func E24Balance(seed uint64) (*Table, *BalanceResult) {
	t := &Table{
		ID:     "E24",
		Title:  "Balancer control plane: placement, admission, migration under churn",
		Paper:  "reconfiguration applies between segments; overload is refused, not served badly (§4.1 principle 6, §4.4)",
		Header: []string{"measure", "value"},
	}
	fl := e24Run(seed)
	defer fl.Close()
	clean := must(fl.CleanTwin())
	st := fl.Streams["t"]
	plan := st.Tree
	migs, cleanMigs := fl.Bal.Migrations(), clean.Bal.Migrations()

	res := &BalanceResult{
		Boxes:        len(fl.Spec.Boxes),
		Viewers:      len(st.Dests),
		Budget:       fl.Spec.Balance.Budget,
		Admitted:     fl.Bal.Admitted(),
		Rejected:     fl.Bal.Rejected(),
		Migrations:   len(migs),
		FirstFitPick: e24Hot,
		Rehomed:      len(plan.RehomedFrom(e24Crash)),
		Spread:       plan.FeederBoxes(),
		AssertsPass:  must(fl.Evaluate()).Pass && must(clean.Evaluate()).Pass,
	}
	res.AudioSheds, res.VideoSheds, _ = fl.Sheds()
	queuePct := 0.0
	if len(migs) > 0 {
		res.MigratedOff = migs[0].Box
		queuePct = 100 * migs[0].Queue
	}
	res.MigrationOk = len(migs) == 1 && res.MigratedOff == e24Hot &&
		len(cleanMigs) == 1 && cleanMigs[0].Box == e24Hot
	// The repair's adopters: first-fit would pick the hot box (it has
	// spare fanout after the migration and sits first in placement
	// order); the balancer must route every orphan elsewhere.
	res.AdoptersCool = plan.Relays(e24Hot) == 0 && res.Rehomed > 0
	for _, m := range plan.RehomedFrom(e24Crash) {
		res.RepairAdopters = append(res.RepairAdopters, plan.Parent(m))
		if plan.Parent(m) == e24Hot {
			res.AdoptersCool = false
		}
	}
	// Byte-identity over every delivery that never crossed the crashed
	// box: the crashed box's own playout and its one-time subtree are
	// excluded, everything else — tree members and call legs — must
	// match the fault-free twin exactly.
	var mismatched int
	res.Survivors, mismatched, res.Excluded = fl.Survivors(clean)
	res.Identical = mismatched == 0
	res.Fingerprint = must(fl.Fingerprint())

	t.Add("admission", fmt.Sprintf("budget %d: %d admitted, %d rejected outright", res.Budget, res.Admitted, res.Rejected))
	t.Add("migration", fmt.Sprintf("%d off %s mid-stream (queue %.0f%% at trigger)", res.Migrations, res.MigratedOff, queuePct))
	t.Add("shed ordering", fmt.Sprintf("%d video sheds, %d audio sheds (reject > migrate > shed-video > shed-audio)", res.VideoSheds, res.AudioSheds))
	t.Add("repair adopters", fmt.Sprintf("%v avoid hot %s (first-fit would re-adopt it)", res.RepairAdopters, e24Hot))
	t.Add("feeder spread", fmt.Sprintf("%d distinct boxes feed the tree after repair", res.Spread))
	t.Add("surviving deliveries byte-identical", fmt.Sprintf("%v (%d checked; %d excluded as ever-under %s)",
		res.Identical, res.Survivors, res.Excluded, e24Crash))
	t.Remark("the control plane sheds load by moving and refusing work; the data plane never pays for it in audio bytes")
	return t, res
}

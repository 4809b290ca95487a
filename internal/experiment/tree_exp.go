package experiment

import "fmt"

// TreeResult is E23's machine-readable outcome, asserted by the tests.
type TreeResult struct {
	Boxes   int // every box including the source
	Viewers int // tree members
	Trees   int // interior-disjoint trees (T)
	Fanout  int // per-box copy bound (K)
	Depth   int // longest source→leaf hop count after the repair
	// SourceCopies is the origin-pull headline: copies the source
	// sends, one per tree, however many viewers.
	SourceCopies int
	// MaxInterior is the planner's copy high-water; BoxCopiesMax is the
	// box layer's own watermark of the same invariant. Both ≤ Fanout.
	MaxInterior  int
	BoxCopiesMax int
	// PerHopOK reports every fabric port ingressed at most the bound
	// number of distinct tree VCIs over the whole run — the per-hop
	// copy invariant measured at the wire, not the planner.
	PerHopOK bool
	Repairs  uint64 // RepairTree invocations
	Rehomed  int    // orphan subtrees re-parented by the repair
	// Excluded viewers once sat under the crashed interior box;
	// Survivors did not, and every one of them must deliver a
	// byte-identical sequence in the faulted and fault-free runs.
	Excluded  int
	Survivors int
	Identical bool
	// AssertsPass is the scenario layer's own verdict, in both twins.
	AssertsPass bool
	Fingerprint string
}

const e23Crash = "a02" // the interior box the fault schedule kills

// e23Spec is the replication-tree tannoy (%d: the seed): one source
// speaking to 102 viewers split over two fabrics joined by two bridge
// links, distributed over two fanout-4 trees.
const e23Spec = `
scenario e23
seed %d
duration 3s
box src mic=speech:1:12000
box a[00..01]
# Kill the server board mid-stream: the box keeps its local playout
# hardware but stops relaying to its subtree.
box a02 crash=server:900ms-1800ms
box a[03..50]
box b[00..50]
# Two bridge links, one per tree: each tree's fabB root pulls its
# single cross-fabric copy over its own link.
link a00 b00 bw=155M
link a01 b01 bw=155M
fabric fabA portbw=155M
fabric fabB portbw=155M
attach fabA src a[00..50]
attach fabB b[00..50]
# The member order puts the bridge-side boxes first so each tree
# crosses the inter-fabric bridge exactly once, near its root.
at 0s tree src -> a00,a01,b00,b01,a[02..50],b[02..50] k=4 trees=2 as t
# The repair fires while the crashed box is down — in the fault-free
# twin too, so both runs converge on the identical topology.
at 1200ms repair t a02
assert survivors-identical
assert copies-max src 2
assert copies-max a00 4
assert copies-max a02 4
assert min-segments t 100
`

// E23 runs the replication-tree experiment at the default seed.
func E23() (*Table, *TreeResult) { return E23Tree(42) }

// E23Tree distributes a 1-source tannoy to 102 viewers across two
// switching fabrics through two fanout-4 replication trees: the source
// sends two copies total, every interior box at most four, and the
// cross-fabric bridges carry one copy per tree. An interior box's
// server board is then crashed mid-stream and the tree repaired around
// it by re-routing the orphans' VCIs between segments; every viewer
// whose path never crossed the crashed box delivers byte-identically
// with the fault-free twin.
func E23Tree(seed uint64) (*Table, *TreeResult) {
	t := &Table{
		ID:     "E23",
		Title:  "Replication trees: origin-pull fan-out with mid-stream repair",
		Paper:  "one copy per hop however many viewers; reconfiguration applies between segments (§4.1, principle 6)",
		Header: []string{"measure", "value"},
	}
	fl := runScenario(fmt.Sprintf(e23Spec, seed))
	defer fl.Close()
	clean := must(fl.CleanTwin())
	st := fl.Streams["t"]
	plan := st.Tree
	cfg := plan.Config()

	res := &TreeResult{
		Boxes:        len(fl.Spec.Boxes),
		Viewers:      len(st.Dests),
		Trees:        cfg.Trees,
		Fanout:       cfg.Fanout,
		Depth:        plan.Depth(),
		SourceCopies: plan.SourceCopies(),
		MaxInterior:  plan.MaxInteriorCopies(),
		Repairs:      plan.Repairs(),
		Rehomed:      len(plan.RehomedFrom(e23Crash)),
		AssertsPass:  must(fl.Evaluate()).Pass && must(clean.Evaluate()).Pass,
	}
	// The per-hop copy invariant at the wire: distinct tree VCIs each
	// fabric port ingressed over the whole run, beside the box layer's
	// own high-water of simultaneous forwarded copies.
	treeVCI := map[uint32]bool{st.Local: true}
	for _, d := range st.Dests {
		treeVCI[d.VCI] = true
	}
	res.PerHopOK = true
	for _, b := range fl.Spec.Boxes {
		distinct := 0
		for vci := range fl.Sys.FabricPort(b.Name).IngressCopies() {
			if treeVCI[vci] {
				distinct++
			}
		}
		bound := cfg.Fanout
		if b.Name == "src" {
			bound = res.SourceCopies
		}
		if distinct > bound {
			res.PerHopOK = false
		}
		res.BoxCopiesMax = max(res.BoxCopiesMax, fl.Sys.Box(b.Name).MaxNetCopies())
	}
	var mismatched int
	res.Survivors, mismatched, res.Excluded = fl.Survivors(clean)
	res.Identical = mismatched == 0
	res.Fingerprint = must(fl.Fingerprint())

	t.Add("viewers", fmt.Sprintf("%d over %d fabrics (2 bridge links)", res.Viewers, 2))
	t.Add("trees", fmt.Sprintf("%d × fanout %d, depth %d", res.Trees, res.Fanout, res.Depth))
	t.Add("source copies per segment", fmt.Sprintf("%d (flat tannoy would send %d)", res.SourceCopies, res.Viewers))
	t.Add("per-hop copy bound at the wire", fmt.Sprintf("held=%v (max interior %d ≤ k=%d)", res.PerHopOK, res.MaxInterior, res.Fanout))
	t.Add("interior crash repaired", fmt.Sprintf("%s: %d subtrees re-homed mid-stream (%d repair)", e23Crash, res.Rehomed, res.Repairs))
	t.Add("surviving deliveries byte-identical", fmt.Sprintf("%v (%d of %d viewers; %d excluded as ever-under %s)",
		res.Identical, res.Survivors, res.Viewers, res.Excluded, e23Crash))
	t.Remark("two trees replace 102 source circuits with 2, and a mid-stream interior failure costs only its own subtrees")
	return t, res
}

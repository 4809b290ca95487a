package experiment

import (
	"fmt"
	"testing"
)

// TestE22FabricIsolation asserts the documented acceptance criteria:
// no audio shed anywhere, video shed oldest-first on the congested
// port, every uncongested port's delivery byte-identical to the
// fault-free run, and the aggregate throughput loss bounded by the
// congested port's share.
func TestE22FabricIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	_, r := E22()
	if r.AudioShed != 0 {
		t.Fatalf("audio shed %d times — principle 2 violated at the fabric", r.AudioShed)
	}
	if r.VideoShed < 2 {
		t.Fatalf("only %d video sheds — the congested port never engaged", r.VideoShed)
	}
	if !r.OldestFirst {
		t.Fatalf("shed order %v did not take the oldest video stream first", r.ShedOrder)
	}
	if r.CleanSheds != 0 {
		t.Fatalf("%d sheds in the fault-free run — congestion is not fault-driven", r.CleanSheds)
	}
	if !r.PortIsolated {
		t.Fatal("a fault on one port changed delivery on an uncongested port — principle 5 violated")
	}
	if r.InjectedFaults == 0 {
		t.Fatal("no injected faults fired on the congested port")
	}
	// The congested port carries about a third of the fabric's bytes;
	// even losing half of them must keep the aggregate above 75%.
	if 4*r.ForwardedBytes < 3*r.CleanBytes {
		t.Fatalf("aggregate delivery collapsed: %d of %d fault-free bytes",
			r.ForwardedBytes, r.CleanBytes)
	}
}

// TestE22DeterministicReplay: the whole faulted fabric run derives
// from the seed, so a replay is byte-identical and a different seed
// is not.
func TestE22DeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	_, r1 := E22Fabric(777)
	_, r2 := E22Fabric(777)
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatalf("same seed, different runs:\n--- run 1\n%s--- run 2\n%s", r1.Fingerprint, r2.Fingerprint)
	}
	_, r3 := E22Fabric(778)
	if r3.Fingerprint == r1.Fingerprint {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestE22IsolationCheckSeesDamage: the isolation row is not vacuous.
// With nothing left out, Survivors finds every audio delivery into the
// faulted port's box mismatched and every other delivery matched.
func TestE22IsolationCheckSeesDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fl := runScenario(fmt.Sprintf(e22Spec, 42))
	defer fl.Close()
	clean := must(fl.CleanTwin())
	all, allBad, _ := fl.Survivors(clean)
	rest, restBad, skipped := fl.Survivors(clean, e22Sink)
	if into := all - rest; into != e22Boxes-1 || skipped != into || allBad != into || restBad != 0 {
		t.Fatalf("%d of %d deliveries mismatched with nothing left out, %d of %d without the %d into %s; want %d into %s, all of them mismatched",
			allBad, all, restBad, rest, skipped, e22Sink, e22Boxes-1, e22Sink)
	}
}

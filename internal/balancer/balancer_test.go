package balancer

import (
	"testing"
	"time"

	"repro/internal/box"
	"repro/internal/core"
	"repro/internal/fabric"
)

func TestScoreWeights(t *testing.T) {
	if got := Score(Sample{}); got != 0 {
		t.Fatalf("idle sample scored %v, want 0", got)
	}
	// Queue pressure dominates: a full egress queue outweighs every
	// secondary signal at its default weight.
	hot := Score(Sample{Queue: 1.0})
	warm := Score(Sample{Ingress: 1.0, Sheds: 4, Copies: 16, Placements: 16})
	if hot <= warm/2 {
		t.Fatalf("full queue scored %v vs %v for all secondary signals", hot, warm)
	}
	// Monotone in each input.
	base := Sample{Queue: 0.5, Ingress: 0.5, Sheds: 1, Faults: 0, Copies: 2, Placements: 2}
	b := Score(base)
	for name, s := range map[string]Sample{
		"queue":      {Queue: 0.6, Ingress: 0.5, Sheds: 1, Copies: 2, Placements: 2},
		"ingress":    {Queue: 0.5, Ingress: 0.6, Sheds: 1, Copies: 2, Placements: 2},
		"sheds":      {Queue: 0.5, Ingress: 0.5, Sheds: 2, Copies: 2, Placements: 2},
		"faults":     {Queue: 0.5, Ingress: 0.5, Sheds: 1, Faults: 1, Copies: 2, Placements: 2},
		"copies":     {Queue: 0.5, Ingress: 0.5, Sheds: 1, Copies: 4, Placements: 2},
		"placements": {Queue: 0.5, Ingress: 0.5, Sheds: 1, Copies: 2, Placements: 4},
	} {
		if got := Score(s); got <= b {
			t.Errorf("raising %s did not raise the score: %v <= %v", name, got, b)
		}
	}
	// Secondary terms saturate at their clamps.
	if Score(Sample{Sheds: 100}) != Score(Sample{Sheds: 4}) {
		t.Errorf("sheds term did not saturate")
	}
	if Score(Sample{Copies: 100}) != Score(Sample{Copies: 16}) {
		t.Errorf("copies term did not saturate")
	}
}

func TestHysteresisBand(t *testing.T) {
	eff := 0.5
	// Jitter inside the band is ignored in both directions.
	for _, raw := range []float64{0.45, 0.55, 0.5, 0.41, 0.59} {
		if got := applyHysteresis(eff, raw); got != eff {
			t.Fatalf("raw %v inside band moved eff to %v", raw, got)
		}
	}
	// Moves beyond the band are adopted.
	if got := applyHysteresis(eff, 0.75); got != 0.75 {
		t.Fatalf("raw 0.75 outside band gave %v", got)
	}
	if got := applyHysteresis(eff, 0.2); got != 0.2 {
		t.Fatalf("raw 0.2 outside band gave %v", got)
	}
	// From zero, the first real load reading is adopted.
	if got := applyHysteresis(0, 0.9); got != 0.9 {
		t.Fatalf("cold start gave %v", got)
	}
}

// balSys builds a small fabric system for control-plane tests.
func balSys(t *testing.T, names ...string) *core.System {
	t.Helper()
	s := core.NewSystem()
	for _, n := range names {
		s.AddBox(box.Config{Name: n})
	}
	s.AddFabric("fab", fabric.Config{})
	for _, n := range names {
		s.AttachFabric("fab", n)
	}
	return s
}

func TestAdmissionBudget(t *testing.T) {
	s := balSys(t, "a", "b")
	defer s.Shutdown()
	b := New(s, Config{Budget: 2})
	if !b.AdmitCall() || !b.AdmitCall() {
		t.Fatal("calls within budget rejected")
	}
	if b.AdmitCall() {
		t.Fatal("call beyond budget admitted")
	}
	if got := b.Rejected(); got != 1 {
		t.Fatalf("Rejected() = %d, want 1", got)
	}
	b.ReleaseCall()
	if !b.AdmitCall() {
		t.Fatal("call after release rejected")
	}
	if got, want := b.Admitted(), uint64(3); got != want {
		t.Fatalf("Admitted() = %d, want %d", got, want)
	}
}

func TestAdmissionUnlimitedAndReleaseFloor(t *testing.T) {
	s := balSys(t, "a", "b")
	defer s.Shutdown()
	b := New(s, Config{}) // Budget 0: no admission control
	b.ReleaseCall()       // spurious release must not underflow
	for i := 0; i < 100; i++ {
		if !b.AdmitCall() {
			t.Fatalf("unlimited budget rejected call %d", i)
		}
	}
	if b.Rejected() != 0 {
		t.Fatalf("unlimited budget rejected %d", b.Rejected())
	}
}

func TestPickFirstOnTies(t *testing.T) {
	s := balSys(t, "n0", "n1", "n2")
	defer s.Shutdown()
	b := New(s, Config{})
	cands := []string{"n2", "n0", "n1"}
	// All scores equal (zero): the pick must be the first candidate, so
	// placement degenerates to first-fit on an idle system.
	if got := b.Pick(cands); got != 0 {
		t.Fatalf("tied pick = %d (%s), want 0 (n2)", got, cands[got])
	}
	// A loaded first candidate loses to the first of the idle ones.
	b.boards["n2"].eff = 1.5
	if got := b.Pick(cands); got != 1 {
		t.Fatalf("pick with n2 loaded = %d (%s), want 1 (n0)", got, cands[got])
	}
	// The lowest score wins wherever it stands.
	b.boards["n0"].eff = 0.5
	if got := b.Pick(cands); got != 2 {
		t.Fatalf("pick with n2, n0 loaded = %d (%s), want 2 (n1)", got, cands[got])
	}
}

func TestPickCountsPlacements(t *testing.T) {
	s := balSys(t, "a", "b")
	defer s.Shutdown()
	b := New(s, Config{})
	b.Pick([]string{"a", "b"})
	b.Pick([]string{"a", "b"})
	if got := b.Scores(); got[0].Placements != 2 || got[1].Placements != 0 {
		t.Fatalf("scores %+v, want a placed on twice and b never", got)
	}
}

func TestPlaceCallPicksLeastLoadedReachable(t *testing.T) {
	s := balSys(t, "a", "b", "c")
	defer s.Shutdown()
	b := New(s, Config{})
	b.boards["b"].eff = 2.0
	callee, ok := b.PlaceCall("a")
	if !ok || callee != "c" {
		t.Fatalf("PlaceCall(a) = %q, %v; want c", callee, ok)
	}
	// No candidates: a lone box has no one to call.
	lone := core.NewSystem()
	defer lone.Shutdown()
	lone.AddBox(box.Config{Name: "solo"})
	lb := New(lone, Config{})
	if _, ok := lb.PlaceCall("solo"); ok {
		t.Fatal("PlaceCall found a callee for a lone box")
	}
}

func TestDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Interval != 40*time.Millisecond ||
		cfg.MigrateHighWater != 0.85 || cfg.Cooldown != 2*time.Second {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

// A balancer on a pairwise-linked system — no fabric, so no port
// probes exist — must sample as idle rather than dereference a nil
// probe (the pandora-sim -balance-without--fabric path).
func TestTickWithoutFabric(t *testing.T) {
	s := core.NewSystem()
	s.AddBox(box.Config{Name: "a"})
	s.AddBox(box.Config{Name: "b"})
	defer s.Shutdown()
	b := New(s, Config{Budget: 1})
	b.Start()
	s.RunFor(200 * time.Millisecond)
	for _, sc := range b.Scores() {
		if sc.Eff != 0 || sc.Queue != 0 {
			t.Fatalf("idle fabric-less box %s scored %+v, want zeros", sc.Name, sc)
		}
	}
	if !b.AdmitCall() || b.AdmitCall() {
		t.Fatal("admission budget ignored without a fabric")
	}
}

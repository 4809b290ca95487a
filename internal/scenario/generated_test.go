package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
)

// genSpec writes one random spec: 3 to 8 boxes, most of them on one of
// one or two fabrics, some pairs joined by links (bridges, when the ends
// sit on different fabrics), one or two streams — a tree with k 0 to 3
// over one or two stripes, or a flat audio stream — and a run of pull,
// split, drop, repair and close events on them, sometimes under a
// balance block. Drops and repairs favour a stream's first members,
// which are its relays. A closed stream's ref is retired: no later event
// names it, and the events end when every stream has closed.
func genSpec(rng *rand.Rand, i int) string {
	var sb strings.Builder
	n := 3 + rng.Intn(6)
	box := func() string { return fmt.Sprintf("b%d", 1+rng.Intn(n-1)) }
	fmt.Fprintf(&sb, "scenario gen%d\nduration 30ms\n", i)
	for b := 0; b < n; b++ {
		fmt.Fprintf(&sb, "box b%d mic=tone:400:8000\n", b)
	}
	fabs := make([][]string, 1+rng.Intn(2))
	for b := 0; b < n; b++ {
		if rng.Intn(6) != 0 {
			f := rng.Intn(len(fabs))
			fabs[f] = append(fabs[f], fmt.Sprintf("b%d", b))
		}
	}
	for f, names := range fabs {
		fmt.Fprintf(&sb, "fabric f%d\n", f)
		if len(names) > 0 {
			fmt.Fprintf(&sb, "attach f%d %s\n", f, strings.Join(names, " "))
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&sb, "link b%d b%d bw=10M\n", a, b)
			}
		}
	}
	if rng.Intn(4) == 0 {
		sb.WriteString("balance interval=5ms\n")
	}
	var refs []string
	first := map[string][]string{} // each stream's destinations as opened
	for s := 0; s < 1+rng.Intn(2); s++ {
		ref := fmt.Sprintf("t%d", s)
		to := []string{box(), box(), box()}[:1+rng.Intn(3)]
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&sb, "at %dms audio b0 -> %s as %s\n", s, strings.Join(to, ","), ref)
		} else {
			fmt.Fprintf(&sb, "at %dms tree b0 -> %s k=%d trees=%d as %s\n", s, strings.Join(to, ","), rng.Intn(4), 1+rng.Intn(2), ref)
		}
		refs, first[ref] = append(refs, ref), to
	}
	for at := 2 + rng.Intn(3); at < 28 && len(refs) > 0; at += 1 + rng.Intn(4) {
		r := rng.Intn(len(refs))
		ref := refs[r]
		target := box()
		if rng.Intn(2) == 0 {
			target = first[ref][0]
		}
		switch op := rng.Intn(10); {
		case op < 3:
			fmt.Fprintf(&sb, "at %dms pull %s %s,%s\n", at, ref, box(), box())
		case op < 5:
			fmt.Fprintf(&sb, "at %dms pull %s %s\n", at, ref, box())
		case op < 7:
			fmt.Fprintf(&sb, "at %dms drop %s %s\n", at, ref, target)
		case op < 9:
			fmt.Fprintf(&sb, "at %dms repair %s %s\n", at, ref, target)
		default:
			fmt.Fprintf(&sb, "at %dms close %s\n", at, ref)
			refs = append(refs[:r], refs[r+1:]...)
		}
	}
	return sb.String()
}

// TestGeneratedSpecsRunAsValidated generates 3 000 specs from one seed
// and runs every one Validate accepts for 30 ms: none may panic, and
// without a balance block none may meet a refusal, because Validate ran
// the plan core runs. At least a quarter of the accepted specs must
// re-home a relay's subtrees by a drop or a repair, or the check says
// little about moves.
func TestGeneratedSpecsRunAsValidated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var accepted, rehomed int
	for i := 0; i < 3000; i++ {
		text := genSpec(rng, i)
		sc, err := Parse(text)
		if err != nil {
			continue
		}
		accepted++
		r, err := NewRunner(sc)
		if err != nil {
			t.Fatalf("spec %d: Parse accepted it, NewRunner did not: %v", i, err)
		}
		func() {
			defer r.Close()
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("spec %d panicked: %v\n%s", i, p, text)
				}
			}()
			if err := r.Run(); err != nil {
				t.Fatalf("spec %d: %v\n%s", i, err, text)
			}
		}()
		if sc.Balance == nil && len(r.Refused) > 0 {
			t.Fatalf("spec %d passed Validate, yet its run was refused: %v\n%s", i, r.Refused, text)
		}
		for _, e := range r.Sys.Obs.Tracer().Events() {
			if e.Kind == obs.EvRepair && e.Source == "core.tree" && !strings.Contains(e.Detail, " around hot ") {
				rehomed++
				break
			}
		}
	}
	t.Logf("%d of 3000 specs accepted, %d of them re-home a relay by a drop or a repair", accepted, rehomed)
	if accepted < 1000 || 4*rehomed < accepted {
		t.Errorf("%d specs accepted, %d re-home a relay: want at least 1000, and a quarter of them", accepted, rehomed)
	}
}

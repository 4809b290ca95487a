package fabric

import (
	"maps"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/occam"
	"repro/internal/segment"
)

// TestRerouteMidStream retargets a live VCI with Reroute while cells
// are in flight — the tree-repair primitive. Route lookup happens at
// crossing end (principle 6), so every sent cell lands on exactly one
// of the two ports: none are lost or duplicated across the switch, and
// the sender's ingress accounting sees every copy.
func TestRerouteMidStream(t *testing.T) {
	r := newRig(t, 3, Config{EgressCellLimit: 256})
	const cells = 400
	r.fab.Route(0, 50, r.fab.Port(1), false)
	r.send(t, 0, 50, cells, 500*time.Microsecond)
	r.rt.Go("reroute", nil, occam.Low, func(p *occam.Proc) {
		p.Sleep(100 * time.Millisecond)
		r.fab.Reroute(p.Now(), 50, r.fab.Port(2), false)
	})
	if err := r.rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	r.rt.Shutdown()
	before, after := r.got[1][50], r.got[2][50]
	if before == 0 || after == 0 {
		t.Fatalf("reroute did not split delivery: %d before, %d after", before, after)
	}
	if before+after != cells {
		t.Fatalf("cells lost or duplicated across the reroute: %d+%d of %d", before, after, cells)
	}
	if got := r.fab.Port(0).IngressCopies()[50]; got != cells {
		t.Fatalf("ingress accounting saw %d cells, sender pushed %d", got, cells)
	}
	if most, idle := r.fab.Port(0).MaxIngressCopies(), r.fab.Port(1).MaxIngressCopies(); most != cells || idle != 0 {
		t.Fatalf("largest per-VCI ingress count %d at the sender's port, %d at a port that sent nothing; want %d and 0", most, idle, cells)
	}
	r.checkNoWireLeak(t)
}

// TestMaxIngressCopiesTracksTheLargestCount: after every send, at
// random, on one of several VCIs, IngressCopies is the sends per VCI
// and MaxIngressCopies the largest of its counts, at the sending port
// and at a port that sent nothing.
func TestMaxIngressCopiesTracksTheLargestCount(t *testing.T) {
	r := newRig(t, 2, Config{EgressCellLimit: 4096})
	vcis := []uint32{70, 71, 72, 73, 74}
	for _, vci := range vcis {
		r.fab.Route(0, vci, r.fab.Port(1), false)
	}
	largest := func(pt *Port) (most uint64) {
		for _, n := range pt.IngressCopies() {
			most = max(most, n)
		}
		return most
	}
	rng := rand.New(rand.NewPCG(7, 30))
	sent := 0
	offered := map[uint32]uint64{}
	r.rt.Go("tx", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 500; i++ {
			// Skewed toward the low VCIs, so most sends go to a VCI that
			// does not hold the largest count.
			vci := vcis[min(rng.IntN(len(vcis)), rng.IntN(len(vcis)))]
			w := r.pool.Encode(segment.NewAudio(uint32(i), 0, [][]byte{make([]byte, segment.BlockSamples)}))
			if err := r.hosts[0].Send(p, atm.Message{VCI: vci, Size: len(w.Bytes()), W: w}); err != nil {
				w.Release()
				t.Error(err)
				return
			}
			sent++
			offered[vci]++
			if got := r.fab.Port(0).IngressCopies(); !maps.Equal(got, offered) {
				t.Errorf("after send %d: IngressCopies %v, sent %v", i, got, offered)
				return
			}
			for _, pt := range []*Port{r.fab.Port(0), r.fab.Port(1)} {
				if got, want := pt.MaxIngressCopies(), largest(pt); got != want {
					t.Errorf("after send %d: %s MaxIngressCopies %d, largest IngressCopies count %d", i, pt.Name(), got, want)
					return
				}
			}
			p.Sleep(time.Duration(rng.IntN(200)) * time.Microsecond)
		}
	})
	if err := r.rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	r.rt.Shutdown()
	if sent != 500 || r.fab.Port(0).MaxIngressCopies() == 0 {
		t.Fatalf("%d of 500 sent, largest count %d", sent, r.fab.Port(0).MaxIngressCopies())
	}
}

// TestRerouteInstallsUnrouted: Reroute of a VCI with no existing route
// is a plain install, not a panic — repair may race teardown.
func TestRerouteInstallsUnrouted(t *testing.T) {
	r := newRig(t, 2, Config{})
	r.rt.Go("install", nil, occam.Low, func(p *occam.Proc) {
		r.fab.Reroute(p.Now(), 60, r.fab.Port(1), false)
	})
	r.send(t, 0, 60, 20, time.Millisecond)
	if err := r.rt.RunUntil(occam.Time(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	r.rt.Shutdown()
	if got := r.got[1][60]; got != 20 {
		t.Fatalf("delivered %d of 20 after install-by-reroute", got)
	}
	r.checkNoWireLeak(t)
}

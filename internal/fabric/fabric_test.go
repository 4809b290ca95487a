package fabric

import (
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
)

// rig is a fabric with n attached hosts, each with a draining receiver
// that counts arrivals per VCI, folds each arrival into its VCI's
// payload digest and releases the wire.
type rig struct {
	rt    *occam.Runtime
	net   *atm.Network
	fab   *Fabric
	hosts []*atm.Host
	pool  *segment.WirePool
	got   []map[uint32]int
	sums  []map[uint32]uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fold mixes one delivered message into h: FNV-1a over its corrupt
// flag, chunk ids and payload bytes.
func fold(h uint64, m atm.Message) uint64 {
	if m.Corrupt {
		h ^= 1
		h *= fnvPrime
	}
	h ^= uint64(m.ChunkIndex)<<16 | uint64(m.ChunkTotal)
	h *= fnvPrime
	for _, b := range m.W.Bytes() {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// digest combines host i's per-VCI digests and counts in VCI order, so
// it pins every byte each stream delivered, in that stream's order,
// while staying indifferent to how the streams interleaved: the
// interleave at a port is timing, not data.
func (r *rig) digest(i int) uint64 {
	h := uint64(fnvOffset)
	for _, vci := range slices.Sorted(maps.Keys(r.sums[i])) {
		for _, x := range []uint64{uint64(vci), r.sums[i][vci], uint64(r.got[i][vci])} {
			h ^= x
			h *= fnvPrime
		}
	}
	return h
}

func newRig(t *testing.T, n int, cfg Config) *rig {
	t.Helper()
	rt := occam.NewRuntime()
	r := &rig{
		rt:   rt,
		net:  atm.New(rt),
		fab:  New(rt, "fab", cfg),
		pool: segment.NewWirePool(),
		got:  make([]map[uint32]int, n),
		sums: make([]map[uint32]uint64, n),
	}
	r.fab.Observe(obs.New(rt))
	for i := 0; i < n; i++ {
		h := r.net.AddHost(string(rune('a' + i)))
		r.fab.Attach(h)
		r.hosts = append(r.hosts, h)
		counts, sums := make(map[uint32]int), make(map[uint32]uint64)
		r.got[i], r.sums[i] = counts, sums
		rt.Go(h.Name()+".drain", nil, occam.High, func(p *occam.Proc) {
			for {
				m := h.Rx.Recv(p)
				counts[m.VCI]++
				if _, ok := sums[m.VCI]; !ok {
					sums[m.VCI] = fnvOffset
				}
				sums[m.VCI] = fold(sums[m.VCI], m)
				m.W.Release()
			}
		})
	}
	return r
}

// checkNoWireLeak asserts every wire ref was released. All test wires
// are the same size, so the pool's News counter is exactly the number
// of distinct storage records — and all of them must be back on the
// free list.
func (r *rig) checkNoWireLeak(t *testing.T) {
	t.Helper()
	if free, alloc := r.pool.FreeLen(), int(r.pool.News); free != alloc {
		t.Fatalf("wire leak: %d of %d storage records returned", free, alloc)
	}
}

// send starts a Low-priority sender pushing count segments on vci from
// host src, one per period.
func (r *rig) send(t *testing.T, src int, vci uint32, count int, period time.Duration) {
	t.Helper()
	h := r.hosts[src]
	r.rt.Go(h.Name()+".tx", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < count; i++ {
			p.Sleep(period)
			w := r.pool.Encode(segment.NewAudio(uint32(i), 0, [][]byte{make([]byte, segment.BlockSamples)}))
			if err := h.Send(p, atm.Message{VCI: vci, Size: len(w.Bytes()), W: w}); err != nil {
				w.Release()
				t.Error(err)
			}
		}
	})
}

func TestFabricDeliversAndAccounts(t *testing.T) {
	r := newRig(t, 3, Config{})
	now := occam.Time(0)
	r.fab.Route(now, 10, r.fab.Port(1), false)
	r.fab.Route(now, 11, r.fab.Port(2), false)
	r.send(t, 0, 10, 20, time.Millisecond)
	r.send(t, 0, 11, 20, time.Millisecond)
	if err := r.rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	r.rt.Shutdown()
	if r.got[1][10] != 20 || r.got[2][11] != 20 {
		t.Fatalf("deliveries: host1=%v host2=%v", r.got[1], r.got[2])
	}
	if s := r.fab.Port(1).Stats(); s.Forwarded != 20 {
		t.Fatalf("port 1 stats %+v", s)
	}
	r.checkNoWireLeak(t)
	if d := r.digest(1); d == fnvOffset || d == r.digest(2) {
		t.Fatalf("port 1 digest %#x, port 2's %#x", d, r.digest(2))
	}
}

// TestFabricRouteUpdateMidStream is principle 6: adding and removing a
// destination of a multi-copy stream mid-flight must leave the other
// copy byte-identical to a run where nothing changed.
func TestFabricRouteUpdateMidStream(t *testing.T) {
	run := func(update bool) (digest uint64, delivered int, unrouted uint64, lateCount int) {
		r := newRig(t, 4, Config{})
		r.fab.Route(0, 20, r.fab.Port(1), false) // steady copy
		r.fab.Route(0, 21, r.fab.Port(2), false) // copy to be torn down
		r.send(t, 0, 20, 50, time.Millisecond)
		r.send(t, 0, 21, 50, time.Millisecond)
		if update {
			r.rt.Go("reconfig", nil, occam.Low, func(p *occam.Proc) {
				p.Sleep(25 * time.Millisecond)
				r.fab.Unroute(21)
				r.fab.Route(p.Now(), 22, r.fab.Port(3), false) // late-joining destination
				r.send(t, 0, 22, 10, time.Millisecond)
			})
		}
		if err := r.rt.RunUntil(occam.Time(time.Second)); err != nil {
			t.Fatal(err)
		}
		r.rt.Shutdown()
		r.checkNoWireLeak(t)
		return r.digest(1), r.got[1][20], r.fab.Stats().Unrouted, r.got[3][22]
	}
	baseD, baseN, _, _ := run(false)
	updD, updN, unrouted, late := run(true)
	if updD != baseD || updN != baseN {
		t.Fatalf("steady copy disturbed by reconfiguration: (%#x,%d) vs (%#x,%d)",
			updD, updN, baseD, baseN)
	}
	if unrouted == 0 {
		t.Fatal("expected post-teardown segments on VCI 21 to drop as unrouted")
	}
	if late != 10 {
		t.Fatalf("late-added destination got %d of 10", late)
	}
}

// faultEvery drops every nth message and can stall the port.
type faultEvery struct {
	n     int
	seen  int
	stall occam.Time
}

func (f *faultEvery) OnMessage(now occam.Time, vci uint32, size int) atm.FaultAction {
	f.seen++
	if f.n > 0 && f.seen%f.n == 0 {
		return atm.FaultAction{Drop: true, Reason: "test-loss"}
	}
	return atm.FaultAction{}
}

func (f *faultEvery) StallUntil(now occam.Time) occam.Time { return f.stall }

// TestFabricPortFaultIsolation is principle 5 across the fabric: a
// faulted (lossy and stalled) port must leave delivery on every other
// port byte-identical to a fault-free run.
func TestFabricPortFaultIsolation(t *testing.T) {
	run := func(faulted bool) (clean uint64, cleanN int, faultDrops uint64) {
		r := newRig(t, 3, Config{})
		r.fab.Route(0, 30, r.fab.Port(1), true)
		r.fab.Route(0, 31, r.fab.Port(2), true)
		if faulted {
			r.fab.Port(2).SetFault(&faultEvery{n: 3, stall: occam.Time(100 * time.Millisecond)})
		}
		r.send(t, 0, 30, 40, time.Millisecond)
		r.send(t, 0, 31, 40, time.Millisecond)
		if err := r.rt.RunUntil(occam.Time(time.Second)); err != nil {
			t.Fatal(err)
		}
		r.rt.Shutdown()
		r.checkNoWireLeak(t)
		return r.digest(1), r.got[1][30], r.fab.Port(2).Stats().Fault.Drops
	}
	baseD, baseN, _ := run(false)
	gotD, gotN, drops := run(true)
	if gotD != baseD || gotN != baseN {
		t.Fatalf("fault on port 2 disturbed port 1: (%#x,%d) vs (%#x,%d)",
			gotD, gotN, baseD, baseN)
	}
	if drops == 0 {
		t.Fatal("fault hook never fired on port 2")
	}
}

// TestFabricEgressOverflow drives a port past its cell bound and checks
// train slicing, drop-tail accounting and full wire recovery. At
// 1 Mbit/s a two-cell message transmits in 848 µs, and one arrives
// every 100 µs: by 100 ms the backlog holds far more than a train, so
// the train in flight is 256 cells.
func TestFabricEgressOverflow(t *testing.T) {
	r := newRig(t, 2, Config{
		PortBandwidth:   1_000_000, // slow port: backlog builds
		EgressCellLimit: 1024,
	})
	r.fab.Route(0, 40, r.fab.Port(1), true)
	r.send(t, 0, 40, 2000, 100*time.Microsecond)
	if err := r.rt.RunUntil(occam.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	train := 0
	for _, m := range r.fab.Port(1).batch {
		train += cells(m.Size)
	}
	if train != 256 {
		t.Fatalf("a train under backlog holds %d cells, want 256", train)
	}
	if err := r.rt.RunUntil(occam.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	r.rt.Shutdown()
	from, s := r.fab.Port(0).Stats(), r.fab.Port(1).Stats()
	if s.EgressDrops == 0 {
		t.Fatalf("expected egress drops, stats %+v", s)
	}
	if s.Forwarded == 0 || s.Forwarded+s.EgressDrops+from.IngressDrops != 2000 {
		t.Fatalf("message conservation violated: sending port %+v, receiving port %+v", from, s)
	}
	r.checkNoWireLeak(t)
}

// TestFabricDeterministicReplay: identical runs produce identical
// per-port digests.
func TestFabricDeterministicReplay(t *testing.T) {
	run := func() [2]uint64 {
		r := newRig(t, 3, Config{})
		r.fab.Route(0, 50, r.fab.Port(1), false)
		r.fab.Route(0, 51, r.fab.Port(2), true)
		r.send(t, 0, 50, 30, time.Millisecond)
		r.send(t, 0, 51, 30, 700*time.Microsecond)
		if err := r.rt.RunUntil(occam.Time(time.Second)); err != nil {
			t.Fatal(err)
		}
		r.rt.Shutdown()
		return [2]uint64{r.digest(1), r.digest(2)}
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replay diverged: %#x vs %#x", a, b)
	}
}

// TestRouteTableGrowsByDoubling pins the dense table's growth: rising
// VCIs use the capacity the last growth left instead of reallocating
// the table per route (n²/2 pointers of garbage for n circuits), and a
// slot exposed by growing into spare capacity is unrouted.
func TestRouteTableGrowsByDoubling(t *testing.T) {
	r := newRig(t, 2, Config{})
	const n = 4000
	grown := 0
	for vci := uint32(1); vci <= n; vci += 2 { // odd VCIs only: the even ones stay holes
		before := cap(r.fab.routeTab)
		r.fab.Route(0, vci, r.fab.Port(1), false)
		if cap(r.fab.routeTab) != before {
			grown++
		}
	}
	if grown > 12 { // log2(4000)
		t.Fatalf("routing %d rising VCIs reallocated the table %d times", n/2, grown)
	}
	for vci := uint32(1); vci <= n; vci++ {
		if got := r.fab.lookup(vci) != nil; got != (vci%2 == 1) {
			t.Fatalf("VCI %d: routed = %v", vci, got)
		}
	}
	r.fab.Unroute(n - 1)
	if r.fab.lookup(n-1) != nil {
		t.Fatalf("VCI %d still routed after Unroute", n-1)
	}
}

// TestRouteChangeAllocatesItsRecord: on an observed fabric a Route and
// Unroute pair allocates the route record alone; the texts the two
// trace are the port's, built when it was attached.
func TestRouteChangeAllocatesItsRecord(t *testing.T) {
	r := newRig(t, 2, Config{})
	defer r.rt.Shutdown()
	r.fab.Route(0, 7, r.fab.Port(1), false) // the table grows once
	r.fab.Unroute(7)
	if allocs := testing.AllocsPerRun(100, func() {
		r.fab.Route(0, 7, r.fab.Port(1), false)
		r.fab.Unroute(7)
	}); allocs != 1 {
		t.Fatalf("a Route+Unroute pair allocates %v objects, want 1 (the route record)", allocs)
	}
}

// TestOccupancyIsTheGaugeQuotient: Port.Occupancy reads what the
// egress and ingress depth gauges over their limits read — the train
// being transmitted and the message crossing held outside both —
// empty, partly full and full, and the ingress queue overflows at 64.
// At 1 kbit/s a one-cell message crosses in 53 ms and transmits in
// 424 ms, so egress fills from the crossbar behind the first train.
func TestOccupancyIsTheGaugeQuotient(t *testing.T) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	reg := obs.New(rt)
	net := atm.New(rt)
	fab := New(rt, "fab", Config{PortBandwidth: 1000, EgressCellLimit: 4})
	fab.Observe(reg)
	a := net.AddHost("a")
	src := fab.Attach(a)
	dst := fab.Attach(net.AddHost("b"))
	fab.Route(0, 1, dst, false)
	check := func(when string, pt *Port, egress, ingress float64) {
		snap := reg.Snapshot()
		quotient := func(depth, limit string) float64 {
			q, _ := snap.Get(depth, obs.L("port", pt.Name()))
			lim, _ := snap.Get(limit, obs.L("port", pt.Name()))
			return q.Value / lim.Value
		}
		geg := quotient("fabric_port_queue_depth", "fabric_port_queue_limit")
		gin := quotient("fabric_port_ingress_depth", "fabric_port_ingress_limit")
		if eg, in := pt.Occupancy(); eg != geg || in != gin || eg != egress || in != ingress {
			t.Errorf("%s: %s Occupancy (%v, %v), gauges (%v, %v); want (%v, %v)", when, pt.Name(), eg, in, geg, gin, egress, ingress)
		}
	}
	if lim, _ := reg.Snapshot().Get("fabric_port_ingress_limit", obs.L("port", src.Name())); lim.Value != 64 {
		t.Fatalf("fabric_port_ingress_limit reads %v, want 64", lim.Value)
	}
	rt.Go("sender", nil, occam.High, func(p *occam.Proc) {
		check("empty", src, 0, 0)
		check("empty", dst, 0, 0)
		send := func(n int) {
			for i := 0; i < n; i++ {
				a.Send(p, atm.Message{VCI: 1, Size: 48})
			}
		}
		send(33) // one crossing, 32 of 64 queued
		check("33 sent", src, 0, 0.5)
		send(32)
		check("65 sent", src, 0, 1)
		send(1) // the queue is full: dropped
		check("66 sent", src, 0, 1)
		if d := src.Stats().IngressDrops; d != 1 {
			t.Errorf("%d ingress drops, want 1", d)
		}
		p.SleepUntil(occam.Time(170 * time.Millisecond)) // 3 crossed: one transmitting, 2 of 4 queued
		check("3 crossed", dst, 0.5, 0)
		check("3 crossed", src, 0, 61.0/64)
		p.SleepUntil(occam.Time(280 * time.Millisecond)) // 5 crossed
		check("5 crossed", dst, 1, 0)
	})
	if err := rt.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

package fabric

import (
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/faultinject"
	"repro/internal/occam"
	"repro/internal/segment"
)

// TestFabricConcurrentRerouteFaults stresses the sharded fast path
// with everything that can change under a live cell stream: mid-stream
// VCI reroutes and teardowns, per-port fault hooks (burst loss,
// jitter, duplicates, a stall window) and shed/restore flips — while
// eight senders keep the crossbar busy. It exists to run under
// `go test -race ./internal/fabric/...`: the runtime serialises user
// procs, and this test is the proof that the shard state (ingress
// queues, crossing timers, egress trains, route table) stays inside
// that discipline under churn.
func TestFabricConcurrentRerouteFaults(t *testing.T) {
	r := newRig(t, 8, Config{EgressCellLimit: 256})

	// Two faulted ports: one noisy (loss/jitter/dup), one with a stall
	// window mid-run.
	r.fab.Port(6).SetFault(faultinject.NewLink(faultinject.LinkConfig{
		BurstEnter: 0.02, Corrupt: 0.01, Duplicate: 0.05,
		JitterMean: 100 * time.Microsecond, JitterStddev: 200 * time.Microsecond,
		Seed: 7,
	}))
	r.fab.Port(7).SetFault(faultinject.NewLink(faultinject.LinkConfig{
		Stalls: []faultinject.Window{{From: 100 * time.Millisecond, To: 160 * time.Millisecond}},
		Seed:   8,
	}))

	// Six senders: VCIs 100..105, initially fanned over ports 1..6.
	for i := 0; i < 6; i++ {
		r.fab.Route(0, uint32(100+i), r.fab.Port(1+i%6), i%2 == 0)
		r.send(t, i, uint32(100+i), 300, time.Millisecond)
	}
	// The churn proc: every 10 ms reroute one live VCI to the next
	// port, tear another down and re-open it elsewhere, and flip a shed
	// bar on the noisy port.
	r.rt.Go("churn", nil, occam.Low, func(p *occam.Proc) {
		for k := 0; k < 25; k++ {
			p.Sleep(10 * time.Millisecond)
			vci := uint32(100 + k%6)
			r.fab.Unroute(vci)
			r.fab.Route(p.Now(), vci, r.fab.Port(1+(k+3)%7), k%2 == 0)
			vci2 := uint32(100 + (k+1)%6)
			r.fab.Unroute(vci2)
			r.fab.Route(p.Now(), vci2, r.fab.Port(1+k%7), false)
			pt := r.fab.Port(6)
			if k%2 == 0 {
				pt.DegradeShed(p, vci)
			} else {
				pt.DegradeRestore(p, vci)
			}
		}
	})
	if err := r.rt.RunUntil(occam.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	r.rt.Shutdown()

	var delivered int
	for _, counts := range r.got {
		for _, n := range counts {
			delivered += n
		}
	}
	if delivered == 0 {
		t.Fatal("nothing delivered through the churned fabric")
	}
	var agg PortStats
	for _, pt := range r.fab.Ports() {
		s := pt.Stats()
		agg.Fault.Add(s.Fault)
		agg.ShedDrops += s.ShedDrops
		agg.Unrouted += s.Unrouted
	}
	if agg.Fault.Drops == 0 || agg.Fault.Duplicates == 0 {
		t.Errorf("fault hook never fired: %+v", agg)
	}
	if agg.ShedDrops == 0 {
		t.Errorf("shed bar never dropped: %+v", agg)
	}
	r.checkNoWireLeak(t)
}

// TestFabricCellPoolNoLeak is the refcount-discipline audit, modeled
// on WirePool.Leaked(): after traffic that exercises every release
// path — ingress overflow, unrouted drops, shed drops, fault drops,
// injected duplicates (the one path that *retains*), egress overflow
// and ordinary delivery — every storage record the pool ever handed
// out must be back on the free list.
func TestFabricCellPoolNoLeak(t *testing.T) {
	r := newRig(t, 4, Config{EgressCellLimit: 32})
	r.fab.Port(3).SetFault(faultinject.NewLink(faultinject.LinkConfig{
		BurstEnter: 0.05, Duplicate: 0.10,
		Stalls: []faultinject.Window{{From: 50 * time.Millisecond, To: 120 * time.Millisecond}},
		Seed:   11,
	}))
	r.fab.Route(0, 40, r.fab.Port(3), true)
	r.fab.Route(0, 41, r.fab.Port(3), false)
	// VCI 42 is never routed: every cell is an unrouted drop.
	r.send(t, 0, 40, 200, 500*time.Microsecond)
	r.send(t, 1, 41, 200, 500*time.Microsecond)
	r.send(t, 2, 42, 100, time.Millisecond)
	// 100 messages at once from host 1, whose port is otherwise idle
	// then: one crosses, 64 queue and 35 overflow the ingress queue.
	r.rt.Go("burst", nil, occam.Low, func(p *occam.Proc) {
		p.SleepUntil(occam.Time(30*time.Millisecond + 250*time.Microsecond))
		for i := 0; i < 100; i++ {
			w := r.pool.Encode(segment.NewAudio(uint32(i), 0, [][]byte{make([]byte, segment.BlockSamples)}))
			r.hosts[1].Send(p, atm.Message{VCI: 41, Size: len(w.Bytes()), W: w})
		}
	})
	// Shed VCI 40 halfway through.
	r.rt.Go("shed", nil, occam.Low, func(p *occam.Proc) {
		p.Sleep(60 * time.Millisecond)
		r.fab.Port(3).DegradeShed(p, 40)
	})
	// Run far past the last send and the stall window so every queue
	// drains; anything still checked out of the pool is a leak.
	if err := r.rt.RunUntil(occam.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	r.rt.Shutdown()
	if n := r.pool.Leaked(); n != 0 {
		t.Fatalf("cell pool leak: %d wire storage records still checked out", n)
	}
	s := r.fab.Port(3).Stats()
	if s.Fault.Drops == 0 || s.Fault.Duplicates == 0 || s.ShedDrops == 0 || s.Fault.Stalls == 0 {
		t.Errorf("fault paths not all exercised: %+v", s)
	}
	if d := r.fab.Port(1).Stats().IngressDrops; d != 35 {
		t.Errorf("%d ingress overflow drops at port 1, want 35", d)
	}
	var unrouted uint64
	for _, pt := range r.fab.Ports() {
		unrouted += pt.Stats().Unrouted
	}
	if unrouted == 0 {
		t.Error("unrouted path not exercised")
	}
}

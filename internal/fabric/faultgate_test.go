package fabric

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
)

// scripted is a fault hook that plays a fixed script: acts[i] is the
// verdict on the i-th arriving message, and a transmission starting
// inside [stallFrom, stallTo) is wedged until stallTo.
type scripted struct {
	acts               map[int]atm.FaultAction
	stallFrom, stallTo occam.Time
	seen               int
}

func (h *scripted) OnMessage(occam.Time, uint32, int) atm.FaultAction {
	h.seen++
	return h.acts[h.seen-1]
}

func (h *scripted) StallUntil(now occam.Time) occam.Time {
	if now >= h.stallFrom && now < h.stallTo {
		return h.stallTo
	}
	return 0
}

// gateRun is what one carrier did with a script.
type gateRun struct {
	stats   atm.FaultStats
	reasons []string      // EvFault details in emission order, "link-"/"port-" stripped
	got     []atm.Message // delivered messages, wires still held
	pool    *segment.WirePool
}

const gateMsgs = 8

// driveGate sends gateMsgs one-block segments a millisecond apart from
// host a to host b on VCI 1 through whatever hop wire installs, and
// collects what the hop's gate did. The receiver holds every delivered
// wire, so the records still out at the end are the sent less the
// hop's drops: a drop that kept its wire shows up as one more, and one
// released twice panics.
func driveGate(t *testing.T, wire func(rt *occam.Runtime, net *atm.Network, reg *obs.Registry, a, b *atm.Host, msgSize int) func() atm.FaultStats) gateRun {
	t.Helper()
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	reg := obs.New(rt)
	net.Observe(reg)
	a, b := net.AddHost("a"), net.AddHost("b")
	r := gateRun{pool: segment.NewWirePool()}
	seg := func(i int) *segment.Audio {
		return segment.NewAudio(uint32(i), 0, [][]byte{make([]byte, segment.BlockSamples)})
	}
	stats := wire(rt, net, reg, a, b, seg(0).WireSize())
	rt.Go("rx", nil, occam.High, func(p *occam.Proc) {
		for {
			r.got = append(r.got, b.Rx.Recv(p))
		}
	})
	rt.Go("tx", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < gateMsgs; i++ {
			p.Sleep(time.Millisecond)
			w := r.pool.Encode(seg(i))
			if err := a.Send(p, atm.Message{VCI: 1, Size: w.Len(), W: w}); err != nil {
				t.Error(err)
			}
		}
	})
	if err := rt.RunUntil(occam.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	r.stats = stats()
	for _, e := range reg.Tracer().Events() {
		if e.Kind == obs.EvFault {
			r.reasons = append(r.reasons, strings.TrimPrefix(strings.TrimPrefix(e.Detail, "link-"), "port-"))
		}
	}
	return r
}

// TestFaultGateSameOnLinkAndPort drives one script through a pairwise
// link and through a fabric port's egress: the gate in front of each
// must count, trace and release identically, whatever queue is behind
// it. room is how many messages the hop's queue holds.
func TestFaultGateSameOnLinkAndPort(t *testing.T) {
	ms := func(f float64) occam.Time { return occam.Time(f * float64(time.Millisecond)) }
	cases := []struct {
		name      string
		hook      scripted
		room      int
		want      atm.FaultStats
		reasons   []string
		delivered int
		corrupt   int
	}{
		{name: "drop with a reason", room: 8,
			hook:      scripted{acts: map[int]atm.FaultAction{2: {Drop: true, Reason: "burst-loss"}}},
			want:      atm.FaultStats{Drops: 1},
			reasons:   []string{"burst-loss"},
			delivered: gateMsgs - 1},
		{name: "drop without one", room: 8,
			hook:      scripted{acts: map[int]atm.FaultAction{0: {Drop: true}, 5: {Drop: true}}},
			want:      atm.FaultStats{Drops: 2},
			reasons:   []string{"injected-loss", "injected-loss"},
			delivered: gateMsgs - 2},
		{name: "corrupt", room: 8,
			hook:      scripted{acts: map[int]atm.FaultAction{3: {Corrupt: true}}},
			want:      atm.FaultStats{Corruptions: 1},
			reasons:   []string{"injected-corruption"},
			delivered: gateMsgs, corrupt: 1},
		{name: "delay is counted, not traced", room: 8,
			hook:      scripted{acts: map[int]atm.FaultAction{1: {Delay: 300 * time.Microsecond}, 4: {Delay: time.Millisecond}}},
			want:      atm.FaultStats{Delays: 2},
			delivered: gateMsgs},
		{name: "duplicate below the queue bound", room: 8,
			hook:      scripted{acts: map[int]atm.FaultAction{4: {Duplicate: true}}},
			want:      atm.FaultStats{Duplicates: 1},
			reasons:   []string{"injected-duplicate"},
			delivered: gateMsgs + 1},
		{name: "duplicate at the queue bound", room: 1,
			hook:      scripted{acts: map[int]atm.FaultAction{4: {Duplicate: true}}},
			delivered: gateMsgs},
		{name: "stall window", room: 8,
			hook:      scripted{stallFrom: ms(2.5), stallTo: ms(6)},
			want:      atm.FaultStats{Stalls: 1},
			reasons:   []string{"stall"},
			delivered: gateMsgs},
		{name: "everything at once", room: 8,
			hook: scripted{stallFrom: ms(4.5), stallTo: ms(5.5), acts: map[int]atm.FaultAction{
				0: {Corrupt: true, Duplicate: true, Delay: time.Microsecond},
				1: {Drop: true, Corrupt: true, Duplicate: true}, // a drop is final
			}},
			want:      atm.FaultStats{Drops: 1, Corruptions: 1, Duplicates: 1, Delays: 1, Stalls: 1},
			reasons:   []string{"injected-corruption", "injected-duplicate", "injected-loss", "stall"},
			delivered: gateMsgs, corrupt: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			linkHook, portHook := c.hook, c.hook
			runs := map[string]gateRun{
				"link": driveGate(t, func(_ *occam.Runtime, net *atm.Network, _ *obs.Registry, a, b *atm.Host, _ int) func() atm.FaultStats {
					l := net.AddLink("hop", atm.LinkConfig{Bandwidth: 100_000_000, QueueLimit: c.room})
					l.SetFault(&linkHook)
					net.OpenCircuit(1, a, b, l)
					return l.FaultStats
				}),
				"port": driveGate(t, func(rt *occam.Runtime, _ *atm.Network, reg *obs.Registry, a, b *atm.Host, msgSize int) func() atm.FaultStats {
					f := New(rt, "fab", Config{EgressCellLimit: c.room * cells(msgSize)})
					f.Observe(reg)
					f.Attach(a)
					out := f.Attach(b)
					out.SetFault(&portHook)
					f.Route(0, 1, out, false)
					return func() atm.FaultStats { return out.Stats().Fault }
				}),
			}
			for carrier, r := range runs {
				if r.stats != c.want {
					t.Errorf("%s: fault stats %+v, want %+v", carrier, r.stats, c.want)
				}
				if !reflect.DeepEqual(r.reasons, c.reasons) {
					t.Errorf("%s: trace reasons %q, want %q", carrier, r.reasons, c.reasons)
				}
				if len(r.got) != c.delivered {
					t.Errorf("%s: delivered %d messages, want %d", carrier, len(r.got), c.delivered)
				}
				if held, want := r.pool.Leaked(), gateMsgs-int(c.want.Drops); held != want {
					t.Errorf("%s: %d wires out after %d drops, want %d (one release per drop)", carrier, held, c.want.Drops, want)
				}
				corrupt := 0
				for _, m := range r.got {
					if m.Corrupt {
						corrupt++
					}
					m.W.Release()
				}
				if corrupt != c.corrupt {
					t.Errorf("%s: %d messages arrived flagged corrupt, want %d", carrier, corrupt, c.corrupt)
				}
				if leaked := r.pool.Leaked(); leaked != 0 {
					t.Errorf("%s: %d wires leaked", carrier, leaked)
				}
			}
		})
	}
}

package box

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/degrade"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
)

// TestDegradeLeversOnRelayAndLeaf pulls the overload controller's three
// levers by hand on a relay stream (played here and forwarded on two
// VCIs), a leaf (played here only) and an outgoing stream, and reads
// after every step where the box sends each stream's copies, whether
// its mixer bars the stream, and the streams it offers the controller.
func TestDegradeLeversOnRelayAndLeaf(t *testing.T) {
	const relay, leaf, out = 5, 7, 9
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	reg := obs.New(rt)
	bx := New(rt, atm.New(rt), Config{Name: "x", Obs: reg})
	var sb strings.Builder
	// barred offers the mixer one segment of id and reports whether it
	// was discarded as shed.
	var seq uint32
	barred := func(p *occam.Proc, id uint32) bool {
		before := counter(t, reg, "mixer_shed_drops_total", obs.L("box", "x"))
		blk := make([]byte, segment.BlockSamples)
		bx.Mixer().Deliver(id, bx.wires.Encode(segment.NewAudio(seq, p.Now(), [][]byte{blk})))
		seq++
		return counter(t, reg, "mixer_shed_drops_total", obs.L("box", "x")) > before
	}
	step := func(p *occam.Proc, what string) {
		fmt.Fprintf(&sb, "%s: copies %v %v %v, barred %v %v, streams %v\n", what,
			bx.NetCopies(relay), bx.NetCopies(leaf), bx.NetCopies(out),
			barred(p, relay), barred(p, leaf), bx.DegradeStreams())
	}
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		bx.SetRoute(p, Route{Stream: relay, Outputs: []Output{OutSpeaker, OutNetwork}, NetVCIs: []uint32{100, 200}, Relay: true})
		bx.SetRoute(p, Route{Stream: leaf, Outputs: []Output{OutSpeaker}})
		bx.SetRoute(p, Route{Stream: out, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{400}})
		step(p, "routed")
		for _, id := range []uint32{relay, leaf, out} {
			bx.DegradeShed(p, id)
			step(p, fmt.Sprintf("shed %d", id))
			bx.DegradeSettle(id, true)
			step(p, fmt.Sprintf("settle shed %d", id))
			bx.DegradeShed(p, id)
			step(p, fmt.Sprintf("shed %d again", id))
			bx.DegradeRestore(p, id)
			step(p, fmt.Sprintf("restore %d", id))
			bx.DegradeSettle(id, false)
			step(p, fmt.Sprintf("settle restore %d", id))
		}
		// A new fan-out supersedes a parked one; the restore that follows
		// goes to the switch.
		bx.DegradeShed(p, relay)
		bx.SetRoute(p, Route{Stream: relay, Outputs: []Output{OutSpeaker, OutNetwork}, NetVCIs: []uint32{300}, Relay: true, Opened: 1})
		step(p, "shed 5, route 5 anew")
		bx.DegradeRestore(p, relay)
		bx.DegradeSettle(relay, false)
		step(p, "restore 5")
		// Closing forgets a parked fan-out and a barred leaf's route.
		bx.DegradeShed(p, relay)
		bx.DegradeShed(p, leaf)
		bx.DegradeSettle(leaf, true)
		bx.CloseRoute(p, relay)
		bx.CloseRoute(p, leaf)
		step(p, "shed and close 5 and 7")
		bx.DegradeRestore(p, relay)
		step(p, "restore closed 5")
	})
	run(t, rt, time.Millisecond)
	if got := sb.String(); got != degradeLeversWant {
		t.Errorf("got:\n%s\nwant:\n%s", got, degradeLeversWant)
	}
}

const degradeLeversWant = `routed: copies [100 200] [] [400], barred false false, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
shed 5: copies [] [] [400], barred false false, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
settle shed 5: copies [] [] [400], barred false false, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
shed 5 again: copies [] [] [400], barred false false, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
restore 5: copies [100 200] [] [400], barred false false, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
settle restore 5: copies [100 200] [] [400], barred false false, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
shed 7: copies [100 200] [] [400], barred false false, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
settle shed 7: copies [100 200] [] [400], barred false true, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
shed 7 again: copies [100 200] [] [400], barred false true, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
restore 7: copies [100 200] [] [400], barred false true, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
settle restore 7: copies [100 200] [] [400], barred false false, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
shed 9: copies [100 200] [] [400], barred false false, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
settle shed 9: copies [100 200] [] [400], barred false false, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
shed 9 again: copies [100 200] [] [400], barred false false, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
restore 9: copies [100 200] [] [400], barred false false, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
settle restore 9: copies [100 200] [] [400], barred false false, streams [{5 false false t+0s} {7 false true t+0s} {9 false false t+0s}]
shed 5, route 5 anew: copies [300] [] [400], barred false false, streams [{5 false false t+1ns} {7 false true t+0s} {9 false false t+0s}]
restore 5: copies [300] [] [400], barred false false, streams [{5 false false t+1ns} {7 false true t+0s} {9 false false t+0s}]
shed and close 5 and 7: copies [] [] [400], barred false true, streams [{9 false false t+0s}]
restore closed 5: copies [] [] [400], barred false true, streams [{9 false false t+0s}]
`

// TestRouteShapesToTheController installs one route of each shape the
// control plane builds — a speaker, a display, a network audio and a
// network video source, an audio and a video relay — and reads what the
// box makes of each: its class, direction and age as DegradeStreams
// offers them, the copies NetCopies sends, and whether DegradeSettle
// bars it at the mixer (only audio that plays here and goes nowhere).
func TestRouteShapesToTheController(t *testing.T) {
	shapes := []struct {
		r      Route
		want   degrade.StreamInfo
		copies []uint32
		barred bool
	}{
		{Route{Stream: 1, Outputs: []Output{OutSpeaker}}, degrade.StreamInfo{ID: 1, Incoming: true}, nil, true},
		{Route{Stream: 2, Outputs: []Output{OutDisplay}}, degrade.StreamInfo{ID: 2, Video: true, Incoming: true}, nil, false},
		{Route{Stream: 3, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{300}}, degrade.StreamInfo{ID: 3}, []uint32{300}, false},
		{Route{Stream: 4, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{400}, Video: true}, degrade.StreamInfo{ID: 4, Video: true}, []uint32{400}, false},
		{Route{Stream: 5, Outputs: []Output{OutSpeaker, OutNetwork}, NetVCIs: []uint32{500, 501}, Relay: true, Opened: 7},
			degrade.StreamInfo{ID: 5, Opened: 7}, []uint32{500, 501}, false},
		{Route{Stream: 6, Outputs: []Output{OutDisplay, OutNetwork}, NetVCIs: []uint32{600}, Relay: true, Video: true},
			degrade.StreamInfo{ID: 6, Video: true}, []uint32{600}, false},
	}
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	reg := obs.New(rt)
	bx := New(rt, atm.New(rt), Config{Name: "x", Obs: reg})
	var seq uint32
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		for _, s := range shapes {
			bx.SetRoute(p, s.r)
		}
		want := make([]degrade.StreamInfo, len(shapes))
		for i, s := range shapes {
			want[i] = s.want
		}
		if got := bx.DegradeStreams(); !reflect.DeepEqual(got, want) {
			t.Errorf("DegradeStreams = %v, want %v", got, want)
		}
		for _, s := range shapes {
			id := s.r.Stream
			if got := bx.NetCopies(id); !slices.Equal(got, s.copies) {
				t.Errorf("stream %d: NetCopies = %v, want %v", id, got, s.copies)
			}
			bx.DegradeSettle(id, true)
			before := counter(t, reg, "mixer_shed_drops_total", obs.L("box", "x"))
			blk := make([]byte, segment.BlockSamples)
			bx.Mixer().Deliver(id, bx.wires.Encode(segment.NewAudio(seq, p.Now(), [][]byte{blk})))
			seq++
			if barred := counter(t, reg, "mixer_shed_drops_total", obs.L("box", "x")) > before; barred != s.barred {
				t.Errorf("stream %d: barred at the mixer = %v, want %v", id, barred, s.barred)
			}
			bx.DegradeSettle(id, false)
		}
	})
	run(t, rt, time.Millisecond)
}

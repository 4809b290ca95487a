package box

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/golden"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/video"
	"repro/internal/workload"
)

// The network output process, pinned by what it puts on the wire. The
// files under testdata/ were recorded at the commit before netOut
// became a step function, and the change had to reproduce them unedited.

// sendLog is an atm.Transport that records every send netOut makes and
// passes it on.
type sendLog struct {
	inner atm.Transport
	lines []string
}

func (l *sendLog) Send(p *occam.Proc, m atm.Message) error {
	kind := "audio"
	if m.W.Type() == segment.TypeVideo {
		kind = "video"
	}
	line := fmt.Sprintf("%v vci %d %s seq %d size %d", p.Now(), m.VCI, kind, m.W.Seq(), m.Size)
	if m.ChunkTotal > 0 {
		line += fmt.Sprintf(" chunk %d/%d", m.ChunkIndex+1, m.ChunkTotal)
	}
	err := l.inner.Send(p, m)
	if err != nil {
		line += " refused"
	}
	l.lines = append(l.lines, line)
	return err
}

// netOutSendLog runs one box sending microphone audio and 128×128 video
// to three network destinations each through a 10 Mbit/s interface: the
// first over a link, the second straight into a host whose reader is
// slow to come back (the send itself blocks), the third on a VCI with no
// circuit. It returns the send log, the reports netOut made, and the
// pool's state after teardown.
func netOutSendLog(t *testing.T, interleave bool) string {
	t.Helper()
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	reg := obs.New(rt)
	bx := New(rt, net, Config{
		Name: "src", Mic: workload.NewTone(400, 12000),
		CameraW: 128, CameraH: 128,
		NetInterfaceBits: 10_000_000, InterleaveNetwork: interleave, Obs: reg,
	})
	log := &sendLog{inner: bx.Host().Transport()}
	bx.Host().SetTransport(log)

	sink := func(name string, every time.Duration) *atm.Host {
		h := net.AddHost(name)
		rt.Go(name, nil, occam.High, func(p *occam.Proc) {
			for {
				m := h.Rx.Recv(p)
				m.W.Release()
				p.Sleep(every)
			}
		})
		return h
	}
	linked, direct := sink("linked", 0), sink("direct", 300*time.Microsecond)
	l := net.AddLink("l", atm.LinkConfig{Bandwidth: 100_000_000, Propagation: 100 * time.Microsecond})
	for _, vci := range []uint32{100, 101} {
		net.OpenCircuit(vci, bx.Host(), linked, l)
		net.OpenCircuit(vci+100, bx.Host(), direct)
	}
	rt.Go("control", nil, occam.High, func(p *occam.Proc) {
		bx.SetRoute(p, Route{Stream: 1, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{100, 200, 300}})
		bx.SetRoute(p, Route{Stream: 2, Outputs: []Output{OutNetwork}, NetVCIs: []uint32{101, 201, 301}, Video: true})
		bx.StartMic(p, 1)
		bx.StartCamera(p, CameraStream{Stream: 2, Rect: video.Rect{W: 128, H: 128}, Rate: video.Rate{Num: 1, Den: 5}})
		p.SleepUntil(occam.Time(450 * time.Millisecond))
		bx.StopMic(p)
		bx.StopCamera(p, 2)
		bx.CloseRoute(p, 1)
		bx.CloseRoute(p, 2)
	})
	run(t, rt, 600*time.Millisecond)

	var out strings.Builder
	for _, line := range log.lines {
		out.WriteString(line + "\n")
	}
	for _, e := range reports(reg, "src.netOut") {
		fmt.Fprintf(&out, "report %v %s\n", e.At, e.Detail)
	}
	fmt.Fprintf(&out, "wires leaked %d\n", bx.WirePoolLeaked())
	if bx.WirePoolLeaked() != 0 {
		t.Errorf("%d wires leaked after teardown", bx.WirePoolLeaked())
	}
	return out.String()
}

func TestNetOutSendLog(t *testing.T) {
	for _, c := range []struct {
		name       string
		interleave bool
	}{{"whole", false}, {"interleaved", true}} {
		t.Run(c.name, func(t *testing.T) {
			got := netOutSendLog(t, c.interleave)
			for _, want := range []string{" audio ", " video ", " refused", "report "} {
				if !strings.Contains(got, want) {
					t.Errorf("send log has no %q line", strings.TrimSpace(want))
				}
			}
			if c.interleave && !strings.Contains(got, " chunk 2/") {
				t.Error("interleaved send log has no second chunk")
			}
			golden.Check(t, "testdata/netout_"+c.name+".golden", got)
		})
	}
}

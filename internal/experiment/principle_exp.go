package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/decouple"
	"repro/internal/mulaw"
	"repro/internal/muting"
	"repro/internal/occam"
	"repro/internal/repository"
	"repro/internal/scenario"
	"repro/internal/segment"
	"repro/internal/workload"
)

// E8 regenerates figure 4.1: the muting factor timeline around a
// threshold crossing, at 2 ms block granularity.
func E8() (*Table, *Series) {
	t := &Table{
		ID:     "E8",
		Title:  "Muting function (figure 4.1)",
		Paper:  "20% for 22ms after the last crossing, then 50% for 22ms, then 100%; ≥4ms reaction margin",
		Header: []string{"time since crossing", "factor"},
	}
	m := muting.New(muting.Config{})
	series := NewSeries("mute factor")
	loud := make([]byte, segment.BlockSamples)
	for i := range loud {
		loud[i] = mulaw.Encode(20000)
	}
	// Speech burst: crossings from 10 ms to 30 ms.
	for i := 0; i < 60; i++ {
		now := int64(i) * int64(segment.BlockDuration)
		if i >= 5 && i < 15 {
			m.ObserveSpeaker(now, loud)
		}
		series.Add(time.Duration(now), m.FactorAt(now))
	}
	last := int64(14) * int64(segment.BlockDuration) // last crossing
	for _, at := range []int64{0, 2, 10, 20, 21, 22, 30, 43, 44, 60} {
		now := last + at*int64(time.Millisecond)
		t.Add(fmt.Sprintf("%dms", at), fmt.Sprintf("%.0f%%", m.FactorAt(now)*100))
	}
	t.Remark("figure: %s", sparkline(series, 30))
	return t, series
}

// sparkline renders a tiny text plot of a series.
func sparkline(s *Series, n int) string {
	pts := s.Downsample(n)
	if len(pts) == 0 {
		return ""
	}
	min, max := pts[0].Value, pts[0].Value
	for _, p := range pts {
		if p.Value < min {
			min = p.Value
		}
		if p.Value > max {
			max = p.Value
		}
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, p := range pts {
		idx := 0
		if max > min {
			idx = int((p.Value - min) / (max - min) * float64(len(levels)-1))
		}
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}

// E10 reproduces the overload-priority principles 1–3 (§2.1).
func E10() *Table {
	t := &Table{
		ID:     "E10",
		Title:  "Degradation order under overload (principles 1–3)",
		Paper:  "incoming before outgoing; video before audio; oldest streams first (§2.1)",
		Header: []string{"principle", "observation", "holds"},
	}

	// P1: CPU overload on the audio board — incoming mixing degrades,
	// the outgoing mic stream does not. The feed (6 streams) is over
	// the loaded capacity of 3.
	{
		r := runScenario(`
scenario e10p1
duration 3s
box dst mic=tone:300:9000 jitter muting interface
box sink
link dst sink bw=100M
feed dst n=6 base=100
at 0s audio dst -> sink as out
`)
		st := r.Streams["out"]
		a := r.Sys.Box("dst").AudioStats()
		incomingDegraded := a.LateTicks > 0
		outgoingClean := a.MicDrops == 0 && r.Sys.Box("sink").Mixer().Stats(st.VCI("sink")).Segments > 500
		t.Add("P1 outgoing priority",
			fmt.Sprintf("late mix ticks=%d, mic drops=%d", a.LateTicks, a.MicDrops),
			yes(incomingDegraded && outgoingClean))
		r.Close()
	}

	// P2: a constricted network output loses video, not audio
	// (netif=2500k: interface too slow for the video).
	{
		r := runScenario(`
scenario e10p2
duration 4s
box a mic=tone:300:9000 camera=256x128 netif=2500k
box b camera=256x128
link a b bw=100M
at 0s audio a -> b as main
at 0s video a -> b rect=0,0,256,128 rate=1/1
`)
		st := r.Streams["main"]
		sw := r.Sys.Box("a").SwitchStats()
		audioLost := r.Sys.Box("b").Mixer().Stats(st.VCI("b")).LostSegments
		videoDropped := sw.FullDrops[2] + sw.AgeDrops[2] // bufNetVideo slot
		t.Add("P2 audio priority",
			fmt.Sprintf("video drops=%d, audio lost=%d", videoDropped, audioLost),
			yes(videoDropped > 20 && audioLost < videoDropped/10))
		r.Close()
	}

	// P3: with the video buffer overloaded by two equal streams, the
	// older stream degrades first.
	{
		r := runScenario(`
scenario e10p3
duration 5s
box a camera=256x128 netif=3M
box b camera=256x128
link a b bw=100M
at 0s video a -> b rect=0,0,256,64 rate=1/1 as old
at 500ms video a -> b rect=0,64,256,64 rate=1/1 as new
`)
		a := r.Sys.Box("a")
		oldDrops := a.StreamDrops(r.Streams["old"].Local)
		newDrops := a.StreamDrops(r.Streams["new"].Local)
		t.Add("P3 new-stream priority",
			fmt.Sprintf("old stream drops=%d, new stream drops=%d", oldDrops, newDrops),
			yes(oldDrops > 2*newDrops))
		r.Close()
	}
	return t
}

func yes(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

// E11 reproduces principle 5: a slow destination of a split stream
// does not affect the other copies.
func E11() *Table {
	t := &Table{
		ID:     "E11",
		Title:  "Upstream independence of split streams (principle 5)",
		Paper:  "downstream bottlenecks must not affect streams split off earlier (§2.2)",
		Header: []string{"destination", "path", "segments", "lost"},
	}
	// The 64 kbit/s queue=4 path to slow is hopeless by design.
	r := runScenario(`
scenario e11
duration 5s
box src mic=tone:440:9000
box fast
box slow
link src fast bw=100M
link src slow bw=64k queue=4
at 0s audio src -> fast,slow as main
`)
	defer r.Close()
	st := r.Streams["main"]
	fast := r.Sys.Box("fast").Mixer().Stats(st.VCI("fast"))
	slow := r.Sys.Box("slow").Mixer().Stats(st.VCI("slow"))
	t.Add("fast", "100 Mbit/s", fmt.Sprintf("%d", fast.Segments), fmt.Sprintf("%d", fast.LostSegments))
	t.Add("slow", "64 kbit/s", fmt.Sprintf("%d", slow.Segments), fmt.Sprintf("%d", slow.LostSegments))
	t.Remark("fast copy complete (%s loss) while the slow path sheds most segments", pct(fast.LostSegments, fast.Segments+fast.LostSegments))
	return t
}

// E12 reproduces principle 6: reconfiguration leaves flowing copies
// undisturbed.
func E12() *Table {
	t := &Table{
		ID:     "E12",
		Title:  "Continuity during reconfiguration (principle 6)",
		Paper:  "splitting or closing one destination must not affect the other copies (§2.2)",
		Header: []string{"phase", "kept copy lost segments"},
	}
	r := startScenario(`
scenario e12
duration 3s
box src mic=tone:440:9000
box keep
box extra
link src keep bw=100M
link src extra bw=100M
at 0s audio src -> keep as main
at 1s pull main extra
at 2s drop main extra
`, nil)
	defer r.Close()
	check := func(phase string, d time.Duration) {
		if err := r.RunFor(d); err != nil {
			panic(err)
		}
		st := r.Streams["main"]
		t.Add(phase, fmt.Sprintf("%d", r.Sys.Box("keep").Mixer().Stats(st.VCI("keep")).LostSegments))
	}
	check("single destination", time.Second)
	check("after split to second destination", time.Second)
	check("after closing second destination", time.Second)
	return t
}

// E13 reproduces principle 4: command latency stays bounded under
// full data load.
func E13() *Table {
	t := &Table{
		ID:     "E13",
		Title:  "Command transport under stream overload (principle 4)",
		Paper:  "stream processing must never prevent command execution (§2.1)",
		Header: []string{"load", "command round trip"},
	}
	for _, loaded := range []bool{false, true} {
		events := ""
		if loaded {
			events = "at 0s audio a -> b\nat 0s video a -> b rect=0,0,256,128 rate=1/1\n"
		}
		var rtt time.Duration
		var r *scenario.Runner
		r = startScenario(fmt.Sprintf(`
scenario e13
duration 1500ms
box a mic=tone:300:9000 camera=256x128
box b camera=256x128
link a b bw=6M
%s`, events), func(p *occam.Proc) {
			if loaded {
				p.Sleep(time.Second)
			}
			before := p.Now()
			r.Sys.Box("a").RequestSwitchReport(p)
			// The report lands in the log; the switch handled the
			// command synchronously before continuing with data.
			rtt = time.Duration(p.Now() - before)
		})
		if err := r.RunFor(1500 * time.Millisecond); err != nil {
			panic(err)
		}
		name := "idle"
		if loaded {
			name = "audio + full-rate video over a congested link"
		}
		t.Add(name, rtt.String())
		r.Close()
	}
	return t
}

// E15 reproduces the repository re-segmentation (§3.2).
func E15() *Table {
	t := &Table{
		ID:     "E15",
		Title:  "Repository re-segmentation: 2 ms blocks → 40 ms segments",
		Paper:  "40ms segments of 320 bytes + 36 byte header cut header overhead ≈5× (§3.2)",
		Header: []string{"form", "segments", "bytes", "header overhead"},
	}
	var segs []*segment.Audio
	tone := workload.NewTone(440, 9000)
	for i := 0; i < 500; i++ { // 2 s of live 2-block segments
		data := make([]byte, 2*segment.BlockSamples)
		tone.FillBlock(data[:segment.BlockSamples])
		tone.FillBlock(data[segment.BlockSamples:])
		segs = append(segs, new(segment.Audio).Reset(uint32(i), occam.Time(i*4_000_000), data))
	}
	rec := &repository.Recording{Stream: 1, Segments: segs}
	merged := rec.Resegment()
	t.Add("live (2 blocks/seg)", fmt.Sprintf("%d", len(rec.Segments)),
		fmt.Sprintf("%d", rec.StoredBytes()), fmt.Sprintf("%.0f%%", rec.HeaderOverhead()*100))
	t.Add("merged (20 blocks/seg)", fmt.Sprintf("%d", len(merged.Segments)),
		fmt.Sprintf("%d", merged.StoredBytes()), fmt.Sprintf("%.0f%%", merged.HeaderOverhead()*100))
	t.Remark("storage shrinks %.1fx; audio identical (%d blocks both)",
		float64(rec.StoredBytes())/float64(merged.StoredBytes()), merged.Blocks())
	return t
}

// E20 demonstrates the ready-channel protocol of figure 3.6: the
// immediate TRUE/FALSE reply lets upstream drop instead of block, and
// avoids the ambiguous plain-acknowledgement race.
func E20() *Table {
	t := &Table{
		ID:     "E20",
		Title:  "Ready-channel protocol (figure 3.6)",
		Paper:  "immediate reply after every input; after FALSE the producer drops instead of blocking (§3.7.1)",
		Header: []string{"producer strategy", "items offered", "delivered", "dropped", "producer blocked"},
	}
	for _, ready := range []bool{true, false} {
		offered, delivered, dropped, blocked := e20Run(ready)
		name := "ready protocol (drop when full)"
		if !ready {
			name = "plain buffer (block when full)"
		}
		t.Add(name, fmt.Sprintf("%d", offered), fmt.Sprintf("%d", delivered),
			fmt.Sprintf("%d", dropped), blocked.String())
	}
	t.Remark("with the ready channel the producer never blocks, so other streams it serves stay live (principle 5)")
	return t
}

func e20Run(ready bool) (offered, delivered int, dropped uint64, blocked time.Duration) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	d := decouple.New[int](rt, "buf", 4, nil)
	const n = 500
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(2 * time.Millisecond)
			offered++
			if ready {
				d.Deliver(p, i)
			} else {
				before := p.Now()
				d.Send(p, i)
				blocked += time.Duration(p.Now() - before)
			}
		}
	})
	got := 0
	rt.Go("slowConsumer", nil, occam.Low, func(p *occam.Proc) {
		for {
			d.Recv(p)
			got++
			p.Sleep(10 * time.Millisecond) // 5x slower than the producer
		}
	})
	if err := rt.RunUntil(occam.Time(20 * time.Second)); err != nil {
		panic(err)
	}
	return offered, got, d.Dropped(), blocked
}

// A1 compares the paper's buffer placement (downstream of the switch,
// per output) with a single shared buffer upstream of the switch: the
// upstream variant head-of-line blocks every output behind the
// slowest one.
func A1() *Table {
	t := &Table{
		ID:     "A1",
		Title:  "Decoupling buffers downstream vs upstream of the switch",
		Paper:  "buffers are placed downstream of the switch so one slow output cannot affect the others (§3.7.1)",
		Header: []string{"placement", "fast output throughput", "slow output throughput"},
	}
	for _, downstream := range []bool{true, false} {
		fast, slow := a1Run(downstream)
		name := "downstream per-output (paper)"
		if !downstream {
			name = "one shared upstream buffer"
		}
		t.Add(name, fmt.Sprintf("%d items", fast), fmt.Sprintf("%d items", slow))
	}
	t.Remark("with the shared upstream queue the fast output is dragged down to the slow one's rate")
	return t
}

func a1Run(downstream bool) (fastN, slowN int) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	type item struct {
		dst int
	}
	fastOut := occam.NewChan[item](rt, "fast")
	slowOut := occam.NewChan[item](rt, "slow")

	if downstream {
		// Paper: switch first, then one buffer per output with ready
		// protocol.
		bufF := decouple.New[item](rt, "bf", 8, nil)
		bufS := decouple.New[item](rt, "bs", 8, nil)
		rt.Go("switch", nil, occam.High, func(p *occam.Proc) {
			for i := 0; ; i++ {
				p.Sleep(time.Millisecond)
				it := item{dst: i % 2}
				if it.dst == 0 {
					bufF.Deliver(p, it)
				} else {
					bufS.Deliver(p, it)
				}
			}
		})
		rt.Go("fwdF", nil, occam.High, func(p *occam.Proc) {
			for {
				fastOut.Send(p, bufF.Recv(p))
			}
		})
		rt.Go("fwdS", nil, occam.High, func(p *occam.Proc) {
			for {
				slowOut.Send(p, bufS.Recv(p))
			}
		})
	} else {
		// Ablation: one shared buffer before the switch; the switch
		// blocks sending to the slow output.
		shared := decouple.New[item](rt, "shared", 8, nil)
		rt.Go("producer", nil, occam.High, func(p *occam.Proc) {
			for i := 0; ; i++ {
				p.Sleep(time.Millisecond)
				shared.Send(p, item{dst: i % 2})
			}
		})
		rt.Go("switch", nil, occam.High, func(p *occam.Proc) {
			for {
				it := shared.Recv(p)
				if it.dst == 0 {
					fastOut.Send(p, it) // blocks when fast consumer busy
				} else {
					slowOut.Send(p, it) // blocks for ages: head-of-line
				}
			}
		})
	}
	rt.Go("fastConsumer", nil, occam.Low, func(p *occam.Proc) {
		for {
			fastOut.Recv(p)
			fastN++
			p.Sleep(2 * time.Millisecond)
		}
	})
	rt.Go("slowConsumer", nil, occam.Low, func(p *occam.Proc) {
		for {
			slowOut.Recv(p)
			slowN++
			p.Sleep(50 * time.Millisecond)
		}
	})
	if err := rt.RunUntil(occam.Time(5 * time.Second)); err != nil {
		panic(err)
	}
	return fastN, slowN
}

// A2 compares the split audio/video network buffers of figure 3.7
// against one shared buffer: sharing costs audio its priority.
func A2() *Table {
	t := &Table{
		ID:     "A2",
		Title:  "Split audio/video network buffers vs shared (figure 3.7)",
		Paper:  "audio is buffered separately so that it can be given priority (principle 2)",
		Header: []string{"buffers", "audio jitter", "audio silences", "audio lost"},
	}
	for _, shared := range []bool{false, true} {
		jit, silences, lost := a2Run(shared)
		name := "split (paper)"
		if shared {
			name = "shared (ablated)"
		}
		t.Add(name, fmt.Sprintf("%.1fms", float64(jit)/1e6),
			fmt.Sprintf("%d", silences), fmt.Sprintf("%d", lost))
	}
	return t
}

func a2Run(shared bool) (jitter time.Duration, silences, lost uint64) {
	flags := ""
	if shared {
		flags = " sharednet"
	}
	r := runScenario(fmt.Sprintf(`
scenario a2
duration 5s
box a mic=tone:400:10000 camera=256x128 netif=3500k%s
box b camera=256x128
link a b bw=100M
at 0s audio a -> b as main
at 0s video a -> b rect=0,0,256,128 rate=1/1
`, flags))
	defer r.Close()
	st := r.Streams["main"]
	mx := r.Sys.Box("b").Mixer()
	m := mx.Stats(st.VCI("b"))
	return mx.Playout(st.VCI("b")).Jitter(), m.Clawback.SilenceInserted, m.LostSegments
}

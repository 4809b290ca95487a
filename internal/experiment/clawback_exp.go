package experiment

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/clawback"
	"repro/internal/segment"
	"repro/internal/workload"
)

const blockNS = int64(segment.BlockDuration)

// driveBuffer plays `secs` seconds of 2 ms ticks into buf: each tick
// one block arrives delayed by jitter(i) and one block is popped.
// occupancy(i) is sampled into the series every second.
func driveBuffer(buf baseline.Buffer, secs int, jitter func(i int) time.Duration, series *Series) {
	type pending struct {
		at int64
		it clawback.Item
	}
	var queue []pending
	ticks := secs * 500
	for i := 0; i < ticks; i++ {
		now := int64(i) * blockNS
		queue = append(queue, pending{at: now + int64(jitter(i)), it: clawback.Item{Stamp: now}})
		for len(queue) > 0 && queue[0].at <= now {
			buf.Push(queue[0].it)
			queue = queue[1:]
		}
		buf.Pop()
		if series != nil && i%500 == 0 {
			series.Add(time.Duration(now), float64(buf.Len())*2) // ms of correction
		}
	}
}

// E5 reproduces the clawback adaptation claim (§3.7.2): "It will take
// about one minute to adjust to the change from 20ms jitter
// correction to 4ms." The output is the figure-style series of
// jitter-correction delay vs time.
func E5() (*Table, *Series) {
	t := &Table{
		ID:     "E5",
		Title:  "Clawback adaptation after a jitter episode",
		Paper:  "20 ms → 4 ms at 2 ms per 8 s ≈ one minute (§3.7.2)",
		Header: []string{"time", "jitter correction"},
	}
	series := NewSeries("clawback delay (ms)")
	buf := baseline.Clawback{Buffer: clawback.New(clawback.Config{})}
	// 30 s of 20 ms jitter, then quiet for 100 s.
	jitter := func(i int) time.Duration {
		if i < 30*500 {
			return time.Duration(workload.NewRNG(uint64(i)).Intn(int(20 * time.Millisecond)))
		}
		return time.Millisecond
	}
	driveBuffer(buf, 130, jitter, series)
	var adaptedAt time.Duration = -1
	for _, p := range series.Points {
		if p.At > 30*time.Second && p.Value <= 4 && adaptedAt < 0 {
			adaptedAt = p.At
		}
	}
	for _, p := range series.Downsample(14) {
		t.Add(p.At.String(), fmt.Sprintf("%.0fms", p.Value))
	}
	if adaptedAt > 0 {
		t.Remark("reached the 4 ms target %v after the jitter stopped (paper: ≈1 minute)", adaptedAt-30*time.Second)
	}
	return t, series
}

// E6 reproduces the clock-drift claim: "our clocks are controlled by
// quartz oscillators with a 1 in 10⁵ drift rate, our 1 in 4000
// clawback rate is sufficient."
func E6() *Table {
	t := &Table{
		ID:     "E6",
		Title:  "Clock drift absorbed by the clawback rate",
		Paper:  "1/4000 clawback rate covers 1/10⁵ quartz drift (§3.7.2)",
		Header: []string{"drift", "minutes", "max occupancy", "claw drops", "silences"},
	}
	for _, drift := range []float64{1e-5, 1e-4} {
		buf := clawback.New(clawback.Config{})
		maxOcc := 0
		// Source fast by `drift`: one extra block every 1/drift blocks.
		extraEvery := int(1 / drift)
		const minutes = 10
		for i := 0; i < minutes*60*500; i++ {
			buf.PushItem(clawback.Item{Stamp: int64(i)})
			if i%extraEvery == 0 {
				buf.PushItem(clawback.Item{Stamp: int64(i)})
			}
			buf.Pop()
			if buf.Len() > maxOcc {
				maxOcc = buf.Len()
			}
		}
		st := buf.Stats()
		t.Add(fmt.Sprintf("%.0e", drift),
			fmt.Sprintf("%d", minutes),
			fmt.Sprintf("%d blocks (%.0fms)", maxOcc, float64(maxOcc)*2),
			fmt.Sprintf("%d", st.ClawDrops),
			fmt.Sprintf("%d", st.SilenceInserted))
	}
	t.Remark("the 1/4096 claw rate exceeds both drifts, so occupancy stays near the target")
	return t
}

// E7 reproduces the multi-rate clawback numbers (§3.7.2): 20
// block·seconds ⇒ drop every 4 s at 10 ms minimum contents, every
// 0.8 s at 50 ms, and halving time ≈ 0.7 × level ≈ 14 s.
func E7() *Table {
	t := &Table{
		ID:     "E7",
		Title:  "Multi-rate clawback",
		Paper:  "20 block·s: 10 ms min → drop/4 s; 50 ms → drop/0.8 s; half-life ≈ 14 s (§3.7.2)",
		Header: []string{"steady contents", "measured drop period", "paper"},
	}
	for _, c := range []struct {
		blocks int
		paper  string
	}{{5, "4s"}, {25, "0.8s"}} {
		period := e7DropPeriod(c.blocks)
		t.Add(fmt.Sprintf("%dms", c.blocks*2), period.String(), c.paper)
	}
	half := e7HalfLife()
	t.Add("half-life from 100ms", half.String(), "≈14s")
	return t
}

func e7DropPeriod(blocks int) time.Duration {
	b := clawback.New(clawback.Config{MultiRate: true, LimitBlocks: 100})
	for i := 0; i < blocks; i++ {
		b.Push(nil)
	}
	var drops []int
	budget := int(clawback.DefaultLevel/0.002) + 10*int(clawback.DefaultLevel/(float64(blocks)*0.002))
	for i := 0; len(drops) < 4 && i < budget; i++ {
		before := b.Stats().ClawDrops
		b.Push(nil)
		if b.Stats().ClawDrops != before {
			drops = append(drops, i)
		}
		b.Pop()
		if b.Len() < blocks {
			b.Push(nil)
		}
	}
	if len(drops) < 4 {
		return 0
	}
	return time.Duration(drops[3]-drops[2]) * segment.BlockDuration
}

func e7HalfLife() time.Duration {
	b := clawback.New(clawback.Config{MultiRate: true, LimitBlocks: 100})
	for i := 0; i < 50; i++ {
		b.Push(nil)
	}
	for b.Stats().ClawDrops == 0 { // let the window lock on
		b.Push(nil)
		b.Pop()
	}
	start := b.Len()
	ticks := 0
	for b.Len() > start/2 {
		b.Push(nil)
		b.Pop()
		ticks++
	}
	return time.Duration(ticks) * segment.BlockDuration
}

// E14 compares the clawback buffer against the §5.1 alternatives
// under the same burst-jitter scenario.
func E14() *Table {
	t := &Table{
		ID:     "E14",
		Title:  "Clawback vs elastic-dump vs clock-adjust vs Naylor",
		Paper:  "clawback: one parameter, destination-only, no timestamps; alternatives glitch or hold delay (§3.7.2, §5.1)",
		Header: []string{"scheme", "glitch blocks", "distortions", "mean delay after burst", "needs timestamps"},
	}
	burst := func(i int) time.Duration {
		switch {
		case i >= 20*500 && i < 40*500:
			return time.Duration(workload.NewRNG(uint64(i)).Intn(int(20 * time.Millisecond)))
		default:
			return time.Duration(workload.NewRNG(uint64(i)).Intn(int(2 * time.Millisecond)))
		}
	}
	type result struct {
		name                 string
		glitches, distortion uint64
		delay                float64
		needsTS              string
	}
	var now int64
	runOne := func(name string, buf baseline.Buffer, needsTS string) result {
		series := NewSeries(name)
		driveBuffer(buf, 120, burst, series)
		var sum float64
		var n int
		for _, p := range series.Points {
			if p.At > 60*time.Second {
				sum += p.Value
				n++
			}
		}
		r := result{name: name, delay: sum / float64(n), needsTS: needsTS}
		switch x := buf.(type) {
		case baseline.Clawback:
			r.glitches = x.Stats().SilenceInserted
		case *baseline.ElasticDump:
			r.glitches = x.Silence + x.Dropped
		case *baseline.ClockAdjust:
			r.glitches = x.Silence
			r.distortion = x.Skipped + x.Stretched
		case *baseline.Naylor:
			r.glitches = x.Silence + x.Dropped
		}
		return r
	}
	results := []result{
		runOne("clawback", baseline.Clawback{Buffer: clawback.New(clawback.Config{})}, "no"),
		runOne("elastic dump", baseline.NewElasticDump(2, 12), "no"),
		runOne("clock adjust", baseline.NewClockAdjust(2, 12, 8), "no"),
		runOne("naylor delay-analysis", baseline.NewNaylor(200, 95, func() int64 { return now }), "YES"),
	}
	for _, r := range results {
		t.Add(r.name, fmt.Sprintf("%d", r.glitches), fmt.Sprintf("%d", r.distortion),
			fmt.Sprintf("%.1fms", r.delay), r.needsTS)
	}
	return t
}

// E19 reproduces the buffering limits (§3.7.2): a 4 s shared pool and
// a ~120 ms per-stream cap, with above-limit arrivals dropped and the
// condition reported.
func E19() *Table {
	t := &Table{
		ID:     "E19",
		Title:  "Clawback pool and per-stream limits",
		Paper:  "4 s shared pool; no point buffering more than ≈120 ms per stream (§3.7.2)",
		Header: []string{"scenario", "limit drops", "pool drops", "max occupancy"},
	}
	// Per-stream cap: one stream with absurd jitter.
	b := clawback.New(clawback.Config{})
	for i := 0; i < 200; i++ {
		b.Push(nil)
	}
	t.Add("one stream, 400 ms burst", fmt.Sprintf("%d", b.Stats().LimitDrops), "0",
		b.Occupancy().String())
	// Shared pool: 40 streams × 100 ms wants 4000 blocks > 2000 pool.
	pool := clawback.NewPool()
	var limitDrops, poolDrops uint64
	maxUsed := 0
	for i := 0; i < 40; i++ {
		s := clawback.New(clawback.Config{Pool: pool})
		for j := 0; j < 55; j++ {
			s.Push(nil)
		}
		limitDrops += s.Stats().LimitDrops
		poolDrops += s.Stats().PoolDrops
		if pool.Used() > maxUsed {
			maxUsed = pool.Used()
		}
	}
	t.Add("40 streams × 110 ms burst", fmt.Sprintf("%d", limitDrops),
		fmt.Sprintf("%d", poolDrops),
		fmt.Sprintf("%d of %d pool blocks", maxUsed, pool.Capacity()))
	return t
}

// E16 reproduces the SuperJanet trial (§3.7.2): "Unmodified Pandora's
// Boxes communicated audio and video successfully under the high
// jitter conditions of a connection from Cambridge to London
// involving several networks and protocol conversions."
func E16() *Table {
	t := &Table{
		ID:     "E16",
		Title:  "SuperJanet: unmodified boxes over a high-jitter multi-network path",
		Paper:  "audio and video communicated successfully under high jitter (§3.7.2)",
		Header: []string{"metric", "value"},
	}
	// Three networks with protocol conversions: middling bandwidths,
	// real propagation, small queues — and heavy cross traffic on the
	// middle hop.
	r := runScenario(`
scenario e16
duration 30s
box cam mic=tone:400:10000
box lon
link cam lon bw=100M prop=200us / bw=8M prop=3ms queue=32 / bw=100M prop=200us
cross cam lon hop=1 vci=9000 seed=7 gap=12ms size=2000+4000
at 0s audio cam -> lon as main
`)
	defer r.Close()
	st := r.Streams["main"]
	mx := r.Sys.Box("lon").Mixer()
	m, lat := mx.Stats(st.VCI("lon")), mx.Playout(st.VCI("lon"))
	t.Add("segments delivered", fmt.Sprintf("%d", m.Segments))
	t.Add("segments lost in the network", fmt.Sprintf("%d", m.LostSegments))
	t.Add("silence insertions", fmt.Sprintf("%d (%s of playback)", m.Clawback.SilenceInserted,
		pct(m.Clawback.SilenceInserted, m.Blocks)))
	t.Add("claw drops (delay recovered)", fmt.Sprintf("%d", m.Clawback.ClawDrops))
	t.Add("one-way latency p99", fmt.Sprintf("%.1fms", float64(lat.Percentile(99))/1e6))
	t.Add("jitter absorbed", fmt.Sprintf("%.1fms", float64(lat.Jitter())/1e6))
	t.Remark("the stream keeps playing: losses and silences stay a small fraction of blocks")
	return t
}

// A3 demonstrates the danger the paper calls out: a clawback counter
// that never resets "would be applied during occasional short
// intervals of low jitter, and lead to unnecessary degradation of the
// audio stream when the jitter increased again."
func A3() *Table {
	t := &Table{
		ID:     "A3",
		Title:  "Clawback counter: reset-below-target vs never-reset",
		Paper:  "faster correction risks degrading during brief quiet intervals (§3.7.2)",
		Header: []string{"variant", "claw drops", "silences after drops"},
	}
	// Alternating jitter: 6 s of 12 ms jitter, 3 s quiet, repeated.
	jitter := func(i int) time.Duration {
		if (i/500)%9 < 6 {
			return time.Duration(workload.NewRNG(uint64(i)).Intn(int(12 * time.Millisecond)))
		}
		return 500 * time.Microsecond
	}
	for _, v := range []struct {
		name    string
		noReset bool
	}{{"paper (reset below target)", false}, {"ablated (never reset)", true}} {
		buf := baseline.Clawback{Buffer: clawback.New(clawback.Config{NoReset: v.noReset, ClawCount: 512})}
		driveBuffer(buf, 180, jitter, nil)
		st := buf.Stats()
		t.Add(v.name, fmt.Sprintf("%d", st.ClawDrops), fmt.Sprintf("%d", st.SilenceInserted))
	}
	t.Remark("the ablated variant claws during quiet gaps, then underruns when jitter returns")
	return t
}

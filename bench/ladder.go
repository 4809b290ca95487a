package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"repro/internal/allocator"
	"repro/internal/atm"
	"repro/internal/atm/udptrans"
	"repro/internal/clawback"
	"repro/internal/decouple"
	"repro/internal/fabric"
	"repro/internal/mixer"
	"repro/internal/mulaw"
	"repro/internal/muting"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/video"
	"repro/internal/workload"
)

// The ladder times calls into each leaf layer's public functions: a
// fixed iteration count per op, the median of ladderReps repeats. It
// attributes a whole-run change to a layer; it is not a workload, and
// no end-to-end claim rests on it. Every driver checks its own output
// and reports a failed check instead of a time.

const ladderReps = 5

// lap is the timed part of one repeat: set-up before start and checks
// after stop stay outside it.
type lap struct {
	t0      time.Time
	m0      uint64
	elapsed time.Duration
	mallocs uint64
}

func (l *lap) start() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	l.m0 = m.Mallocs
	l.t0 = time.Now()
}

func (l *lap) stop() {
	l.elapsed = time.Since(l.t0)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	l.mallocs = m.Mallocs - l.m0
}

type ladderOp struct {
	name  string // layer.op
	iters int
	// run performs iters operations between l.start and l.stop and
	// returns an error when its self-check fails.
	run func(n int, l *lap) error
}

var ladderOps = []ladderOp{
	{"calib.fnv4k", 20_000, ladderCalib},
	{"occam.handoff", 200_000, ladderHandoff},
	{"occam.sleep", 200_000, ladderSleep},
	{"occam.timer", 1_000_000, ladderTimer},
	{"occam.alt", 150_000, ladderAlt},
	{"segment.encode_audio", 2_000_000, ladderEncodeAudio},
	{"segment.decode_audio", 2_000_000, ladderDecodeAudio},
	{"segment.encode_video", 500_000, ladderEncodeVideo},
	{"mulaw.scale_block", 5_000_000, ladderScaleBlock},
	{"muting.apply", 5_000_000, ladderMuting},
	{"allocator.get_release", 1_000_000, ladderAllocator},
	{"decouple.ring", 10_000_000, ladderRing},
	{"clawback.push_pop", 5_000_000, ladderClawback},
	{"mixer.deliver_tick", 500_000, ladderMixer},
	{"video.compress_line", 500_000, ladderCompressLine},
	{"video.decompress_line", 500_000, ladderDecompressLine},
	{"atm.link_send", 200_000, ladderLinkSend},
	{"fabric.crossing", 200_000, ladderCrossing},
	{"fabric.reroute", 1_000_000, ladderReroute},
	{"udptrans.encode", 5_000_000, ladderUDPEncode},
	{"udptrans.decode", 5_000_000, ladderUDPDecode},
	{"udptrans.batch_send", 100_000, ladderUDPBatch},
	{"obs.snapshot", 20_000 * 3, ladderSnapshot},
	{"obs.counter_inc", 50_000_000, ladderCounterInc},
}

// runLadder runs every op and prints its metrics; it reports whether
// every self-check passed.
func runLadder() bool {
	ok := true
	for _, op := range ladderOps {
		var ns, allocs []float64
		var failed error
		for r := 0; r < ladderReps && failed == nil; r++ {
			var l lap
			failed = op.run(op.iters, &l)
			ns = append(ns, float64(l.elapsed.Nanoseconds())/float64(op.iters))
			allocs = append(allocs, float64(l.mallocs)/float64(op.iters))
		}
		if failed != nil {
			ok = false
			fmt.Printf("%-36s FAILED: %v\n", op.name, failed)
			continue
		}
		fmt.Printf("%-36s %12.2f ns\n", op.name+".ns_per_op", median(ns))
		fmt.Printf("%-36s %12.4f count\n", op.name+".allocs_per_op", median(allocs))
	}
	return ok
}

func ladderCalib(n int, l *lap) error {
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	var first, last uint64
	l.start()
	for i := 0; i < n; i++ {
		h := fnv.New64a()
		h.Write(buf)
		last = h.Sum64()
		if i == 0 {
			first = last
		}
	}
	l.stop()
	if first != last || first == 0 {
		return fmt.Errorf("hash not stable: %x then %x", first, last)
	}
	return nil
}

// ladderHandoff: two processes ping-pong over two channels; one op is
// one channel hand-off (send + matching receive).
func ladderHandoff(n int, l *lap) error {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	ping := occam.NewChan[int](rt, "ping")
	pong := occam.NewChan[int](rt, "pong")
	got := 0
	rt.Go("a", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < n/2; i++ {
			ping.Send(p, i)
			got += pong.Recv(p) - i
		}
	})
	rt.Go("b", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < n/2; i++ {
			pong.Send(p, ping.Recv(p)+1)
		}
	})
	l.start()
	err := rt.RunUntil(occam.Time(time.Second))
	l.stop()
	if err != nil {
		return err
	}
	if got != n/2 {
		return fmt.Errorf("%d round trips completed, want %d", got, n/2)
	}
	return nil
}

// ladderSleep: 1000 processes each sleeping to their own deadline, so
// the timer heap stays 1000 deep; one op is one SleepUntil wake-up.
func ladderSleep(n int, l *lap) error {
	const procs = 1000
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	wakes := 0
	per := n / procs
	for i := 0; i < procs; i++ {
		off := occam.Time(i)
		rt.Go("s", nil, occam.Low, func(p *occam.Proc) {
			for k := 1; k <= per; k++ {
				p.SleepUntil(occam.Time(k*10_000) + off)
				wakes++
			}
		})
	}
	l.start()
	err := rt.RunUntil(occam.Time((per + 1) * 10_000))
	l.stop()
	if err != nil {
		return err
	}
	if wakes != per*procs {
		return fmt.Errorf("%d wake-ups, want %d", wakes, per*procs)
	}
	return nil
}

// ladderTimer: 1000 passive timers re-arming themselves from their
// callbacks; one op is one timer fire, with no process switch.
func ladderTimer(n int, l *lap) error {
	const timers = 1000
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	fires := 0
	per := n / timers
	tms := make([]*occam.Timer, timers)
	for i := range tms {
		i := i
		left := per
		tms[i] = occam.NewTimer(rt, func(s occam.Sched) {
			fires++
			if left--; left > 0 {
				s.Schedule(tms[i], s.Now().Add(10*time.Microsecond))
			}
		})
	}
	rt.Go("arm", nil, occam.Low, func(p *occam.Proc) {
		for i, tm := range tms {
			tm.Schedule(occam.Time(10_000 + i))
		}
	})
	l.start()
	err := rt.RunUntil(occam.Time((per + 2) * 10_000))
	l.stop()
	if err != nil {
		return err
	}
	if fires != per*timers {
		return fmt.Errorf("%d timer fires, want %d", fires, per*timers)
	}
	return nil
}

// ladderAlt: a server in a 3-guard PRI ALT fed by three senders; one
// op is one Alt that blocks and is woken by a sender.
func ladderAlt(n int, l *lap) error {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	chans := [3]*occam.Chan[int]{}
	for i := range chans {
		chans[i] = occam.NewChan[int](rt, fmt.Sprintf("c%d", i))
	}
	per := n / 3
	var got [3]int
	rt.Go("server", nil, occam.High, func(p *occam.Proc) {
		var v int
		guards := []occam.Guard{occam.Recv(chans[0], &v), occam.Recv(chans[1], &v), occam.Recv(chans[2], &v)}
		for i := 0; i < per*3; i++ {
			got[p.Alt(guards...)]++
		}
	})
	for i := range chans {
		ch := chans[i]
		rt.Go("client", nil, occam.Low, func(p *occam.Proc) {
			for k := 0; k < per; k++ {
				ch.Send(p, k)
			}
		})
	}
	l.start()
	err := rt.RunUntil(occam.Time(time.Second))
	l.stop()
	if err != nil {
		return err
	}
	if got != [3]int{per, per, per} {
		return fmt.Errorf("guards fired %v times, want %d each", got, per)
	}
	return nil
}

// audioBlocks returns one 2-block segment's worth of a tone loud
// enough to cross the muting threshold.
func audioBlocks() []byte {
	tone := workload.NewTone(400, 16000)
	data := make([]byte, 2*segment.BlockSamples)
	tone.FillBlock(data[:segment.BlockSamples])
	tone.FillBlock(data[segment.BlockSamples:])
	return data
}

func ladderEncodeAudio(n int, l *lap) error {
	pool := segment.NewWirePool()
	data := audioBlocks()
	var aseg segment.Audio
	var bad int
	l.start()
	for i := 0; i < n; i++ {
		w := pool.Encode(aseg.Reset(uint32(i), occam.Time(i), data))
		if w.Seq() != uint32(i) {
			bad++
		}
		w.Release()
	}
	l.stop()
	if bad != 0 || pool.Leaked() != 0 {
		return fmt.Errorf("%d wrong headers, %d wires leaked", bad, pool.Leaked())
	}
	return nil
}

func ladderDecodeAudio(n int, l *lap) error {
	pool := segment.NewWirePool()
	data := audioBlocks()
	var aseg segment.Audio
	w := pool.Encode(aseg.Reset(7, 0, data))
	var last *segment.Audio
	var err error
	l.start()
	for i := 0; i < n && err == nil; i++ {
		last, err = w.DecodeAudio()
	}
	l.stop()
	w.Release()
	if err != nil {
		return err
	}
	if last.Seq != 7 || !bytes.Equal(last.Data, data) || pool.Leaked() != 0 {
		return fmt.Errorf("decode(encode(x)) != x, or %d wires leaked", pool.Leaked())
	}
	return nil
}

func ladderEncodeVideo(n int, l *lap) error {
	pool := segment.NewWirePool()
	data := make([]byte, 32*65) // 32 compressed lines of a 128-pixel row
	for i := range data {
		data[i] = byte(i)
	}
	var last segment.Wire
	l.start()
	for i := 0; i < n; i++ {
		if !last.IsZero() {
			last.Release()
		}
		last = pool.Encode(segment.NewVideo(uint32(i), occam.Time(i), 1, 4, 0, 0, 0, 128, 0, 32, data))
	}
	l.stop()
	var v segment.Video
	err := last.DecodeVideoInto(&v)
	ok := err == nil && v.Seq == uint32(n-1) && bytes.Equal(v.Data, data)
	last.Release()
	if !ok || pool.Leaked() != 0 {
		return fmt.Errorf("decode(encode(x)) != x (%v), or %d wires leaked", err, pool.Leaked())
	}
	return nil
}

func ladderScaleBlock(n int, l *lap) error {
	half := mulaw.NewScaleTable(0.5)
	src := audioBlocks()[:segment.BlockSamples]
	want := make([]byte, len(src))
	for i, b := range src {
		want[i] = half[b]
	}
	got := append([]byte(nil), src...)
	half.Apply(got)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("scaled block differs from the table")
	}
	l.start()
	for i := 0; i < n; i++ {
		half.Apply(got)
	}
	l.stop()
	return nil
}

// ladderMuting: the loudspeaker is loud on every block, so every
// microphone block must come back attenuated.
func ladderMuting(n int, l *lap) error {
	m := muting.New(muting.Config{})
	loud := audioBlocks()[:segment.BlockSamples]
	mic := append([]byte(nil), loud...)
	l.start()
	for i := 0; i < n; i++ {
		now := int64(i) * int64(segment.BlockDuration)
		m.ObserveSpeaker(now, loud)
		m.ApplyMic(now, mic)
	}
	l.stop()
	if m.MutedBlocks() != uint64(n) {
		return fmt.Errorf("%d blocks muted, want %d", m.MutedBlocks(), n)
	}
	return nil
}

func ladderAllocator(n int, l *lap) error {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	pool := allocator.New(rt, nil, 8, nil)
	done := 0
	rt.Go("user", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < n; i++ {
			b := pool.Get(p)
			pool.Release(p, b)
			done++
		}
	})
	l.start()
	err := rt.RunUntil(occam.Time(time.Second))
	l.stop()
	if err != nil {
		return err
	}
	if done != n || pool.Starvations() != 0 {
		return fmt.Errorf("%d get/release pairs, %d starvations", done, pool.Starvations())
	}
	return nil
}

func ladderRing(n int, l *lap) error {
	r := decouple.NewRing[int](64)
	bad := 0
	l.start()
	for i := 0; i < n; i += 32 {
		for k := 0; k < 32; k++ {
			r.Push(i + k)
		}
		for k := 0; k < 32; k++ {
			if v, ok := r.Pop(); !ok || v != i+k {
				bad++
			}
		}
	}
	l.stop()
	if bad != 0 || r.Pushed() != r.Popped() || r.Pushed() != uint64(n) {
		return fmt.Errorf("%d out of order, pushed %d popped %d", bad, r.Pushed(), r.Popped())
	}
	return nil
}

// ladderClawback: one block in, one block out, the buffer sitting at
// its target occupancy; pops must equal pushes and no silence appear.
func ladderClawback(n int, l *lap) error {
	b := clawback.New(clawback.Config{})
	blk := audioBlocks()[:segment.BlockSamples]
	b.Push(blk)
	l.start()
	for i := 0; i < n; i++ {
		b.Push(blk)
		b.Pop()
	}
	l.stop()
	st := b.Stats()
	if st.Popped != uint64(n) || st.Accepted != st.Pushed || st.SilenceInserted != 0 || b.Len() != 1 {
		return fmt.Errorf("not steady: %+v, %d queued", st, b.Len())
	}
	return nil
}

// ladderMixer: three streams each deliver a 2-block segment, then two
// mixing ticks consume them; one op is that whole 4 ms cycle.
func ladderMixer(n int, l *lap) error {
	m := mixer.New(mixer.Config{})
	pool := segment.NewWirePool()
	data := audioBlocks()
	var aseg segment.Audio
	l.start()
	for i := 0; i < n; i++ {
		for id := uint32(1); id <= 3; id++ {
			m.Deliver(id, pool.Encode(aseg.Reset(uint32(i), occam.Time(i), data)))
		}
		now := int64(i) * int64(2*segment.BlockDuration)
		m.Tick(now)
		m.Tick(now + int64(segment.BlockDuration))
	}
	l.stop()
	for i := 0; i < 8; i++ { // drain what the clawback buffers still hold
		m.Tick(0)
	}
	for id := uint32(1); id <= 3; id++ {
		if st := m.Stats(id); st.Segments != uint64(n) || st.LostSegments != 0 {
			return fmt.Errorf("stream %d: %d segments (want %d), %d lost", id, st.Segments, n, st.LostSegments)
		}
	}
	if pool.Leaked() != 0 {
		return fmt.Errorf("%d wires leaked", pool.Leaked())
	}
	return nil
}

func cameraLine() []byte {
	f := workload.NewCamera(128, 128).FrameAt(3)
	return append([]byte(nil), f.Row(40)...)
}

func ladderCompressLine(n int, l *lap) error {
	line := cameraLine()
	lp := video.LineParams{Shift: 1}
	want, _ := video.CompressLine(line, lp)
	var c video.Codec
	var got []byte
	l.start()
	for i := 0; i < n; i++ {
		c.Reset()
		got = c.CompressLine(line, lp)
	}
	l.stop()
	if !bytes.Equal(got, want) {
		return fmt.Errorf("codec output differs from the reference CompressLine")
	}
	return nil
}

func ladderDecompressLine(n int, l *lap) error {
	line := cameraLine()
	wire, recon := video.CompressLine(line, video.LineParams{Shift: 1})
	var c video.Codec
	var got []byte
	var err error
	l.start()
	for i := 0; i < n && err == nil; i++ {
		got, err = c.DecompressLine(wire, len(line))
	}
	l.stop()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, recon) {
		return fmt.Errorf("decompress(compress(x)) differs from the encoder's reconstruction")
	}
	return nil
}

// sendAudio paces n audio segments from the tx hosts (round robin,
// VCI = 1 + index) every pace of virtual time and counts what the
// sink host receives; delivered must equal sent with no wire leaked.
func sendAudio(rt *occam.Runtime, tx []*atm.Host, sink *atm.Host, n int, pace time.Duration, l *lap) error {
	pool := segment.NewWirePool()
	delivered, refused := 0, 0
	rt.Go("drain", nil, occam.High, func(p *occam.Proc) {
		for {
			m := sink.Rx.Recv(p)
			m.W.Release()
			delivered++
		}
	})
	rt.Go("tx", nil, occam.Low, func(p *occam.Proc) {
		data := audioBlocks()
		var aseg segment.Audio
		for i := 0; i < n; i++ {
			p.SleepUntil(occam.Time(int64(i) * int64(pace)))
			w := pool.Encode(aseg.Reset(uint32(i), p.Now(), data))
			k := i % len(tx)
			if tx[k].Send(p, atm.Message{VCI: uint32(1 + k), Size: w.Len(), W: w}) != nil {
				w.Release()
				refused++
			}
		}
	})
	l.start()
	err := rt.RunUntil(occam.Time(time.Duration(n)*pace + 50*time.Millisecond))
	l.stop()
	if err != nil {
		return err
	}
	if delivered != n || refused != 0 || pool.Leaked() != 0 {
		return fmt.Errorf("sent %d, delivered %d, refused %d, %d wires leaked", n, delivered, refused, pool.Leaked())
	}
	return nil
}

func ladderLinkSend(n int, l *lap) error {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	a, b := net.AddHost("a"), net.AddHost("b")
	link := net.AddLink("a-b", atm.LinkConfig{Bandwidth: 100_000_000})
	net.OpenCircuit(1, a, b, link)
	return sendAudio(rt, []*atm.Host{a}, b, n, 20*time.Microsecond, l)
}

func ladderCrossing(n int, l *lap) error {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	fab := fabric.New(rt, "ladder", fabric.Config{})
	hosts := make([]*atm.Host, 4)
	for i := range hosts {
		hosts[i] = net.AddHost(fmt.Sprintf("h%d", i))
		fab.Attach(hosts[i])
	}
	for vci := uint32(1); vci <= 3; vci++ {
		fab.Route(0, vci, fab.Port(3), false)
	}
	return sendAudio(rt, hosts[:3], hosts[3], n, 20*time.Microsecond, l)
}

// ladderReroute: one op is a route-table write (Route, Reroute or
// Unroute in rotation over 64 VCIs); afterwards a routed VCI must
// still reach the port its last write named.
func ladderReroute(n int, l *lap) error {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	net := atm.New(rt)
	fab := fabric.New(rt, "ladder", fabric.Config{})
	hosts := make([]*atm.Host, 4)
	for i := range hosts {
		hosts[i] = net.AddHost(fmt.Sprintf("h%d", i))
		fab.Attach(hosts[i])
	}
	l.start()
	for i := 0; i < n; i += 3 {
		vci := uint32(100 + i/3%64)
		fab.Route(0, vci, fab.Port(1), false)
		fab.Reroute(0, vci, fab.Port(2), false)
		fab.Unroute(vci)
	}
	l.stop()
	fab.Route(0, 1, fab.Port(2), false)
	fab.Reroute(0, 1, fab.Port(3), false)
	var quiet lap
	return sendAudio(rt, hosts[:1], hosts[3], 10, 20*time.Microsecond, &quiet)
}

func udpMessage(pool *segment.WirePool) atm.Message {
	var aseg segment.Audio
	w := pool.Encode(aseg.Reset(9, 0, audioBlocks()))
	return atm.Message{VCI: 7, Size: w.Len(), W: w}
}

// sameMessage checks decode(encode(m)) == m for the fields udptrans carries.
func sameMessage(got, m atm.Message, err error) error {
	if err != nil || got.VCI != m.VCI || got.Size != m.Size || !bytes.Equal(got.W.Bytes(), m.W.Bytes()) {
		return fmt.Errorf("decode(encode(m)) != m (%v)", err)
	}
	return nil
}

func ladderUDPEncode(n int, l *lap) error {
	pool := segment.NewWirePool()
	m := udpMessage(pool)
	defer m.W.Release()
	var buf []byte
	var err error
	l.start()
	for i := 0; i < n && err == nil; i++ {
		buf, err = udptrans.Encode(buf[:0], m)
	}
	l.stop()
	if err != nil {
		return err
	}
	got, err := udptrans.Decode(buf)
	return sameMessage(got, m, err)
}

func ladderUDPDecode(n int, l *lap) error {
	pool := segment.NewWirePool()
	m := udpMessage(pool)
	defer m.W.Release()
	buf, err := udptrans.Encode(nil, m)
	if err != nil {
		return err
	}
	var got atm.Message
	l.start()
	for i := 0; i < n && err == nil; i++ {
		got, err = udptrans.Decode(buf)
	}
	l.stop()
	return sameMessage(got, m, err)
}

// ladderUDPBatch sends over a loopback socket pair. The receiver is a
// real goroutine blocked in the kernel, so this one op runs at
// GOMAXPROCS=2; loopback UDP repeats only to about ±15 %.
func ladderUDPBatch(n int, l *lap) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rx, err := udptrans.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer rx.Close()
	t, err := udptrans.Dial(rx.Addr())
	if err != nil {
		return err
	}
	defer t.Close()
	b := udptrans.NewBatcher(t, udptrans.DefaultBatch)
	pool := segment.NewWirePool()
	m := udpMessage(pool)
	defer m.W.Release()
	l.start()
	for i := 0; i < n && err == nil; i++ {
		err = b.Add(m)
	}
	if err == nil {
		err = b.Flush()
	}
	l.stop()
	if err != nil {
		return err
	}
	if _, sent := b.Stats(); sent != uint64(n) {
		return fmt.Errorf("%d datagrams handed to the kernel, want %d", sent, n)
	}
	return nil
}

// ladderSnapshot: one op is one sample of a 20 000-instrument
// registry snapshot (the size of the fanout workload's).
func ladderSnapshot(n int, l *lap) error {
	const instruments = 20_000
	reg := obs.New(nil)
	for i := 0; i < instruments; i++ {
		reg.Counter("ladder_total", obs.L("i", fmt.Sprint(i))).Add(uint64(i))
	}
	var snap obs.Snapshot
	l.start()
	for i := 0; i < n; i += instruments {
		snap = reg.Snapshot()
	}
	l.stop()
	if len(snap.Samples) != instruments || snap.Total("ladder_total") != instruments*(instruments-1)/2 {
		return fmt.Errorf("snapshot holds %d samples totalling %v", len(snap.Samples), snap.Total("ladder_total"))
	}
	if !sort.SliceIsSorted(snap.Samples, func(i, j int) bool { return snap.Samples[i].ID() < snap.Samples[j].ID() }) {
		return fmt.Errorf("snapshot samples are not sorted")
	}
	return nil
}

func ladderCounterInc(n int, l *lap) error {
	c := obs.New(nil).Counter("ladder_total")
	l.start()
	for i := 0; i < n; i++ {
		c.Inc()
	}
	l.stop()
	if c.Value() != uint64(n) {
		return fmt.Errorf("counter reads %d, want %d", c.Value(), n)
	}
	return nil
}

package mixer

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/mulaw"
	"repro/internal/obs"
	"repro/internal/segment"
)

// bitScanEncode is µ-law encoding with the exponent found by scanning
// down from bit 14 for the first set bit, as mulaw.Encode once did.
func bitScanEncode(sample int16) byte {
	s := int32(sample)
	sign := byte(0)
	if s < 0 {
		s = -s
		sign = 0x80
	}
	s = min(s, 32635) + mulaw.Bias
	exp := 7
	for mask := int32(0x4000); exp > 0 && s&mask == 0; exp-- {
		mask >>= 1
	}
	return ^(sign | byte(exp)<<4 | byte((s>>(uint(exp)+3))&0x0F))
}

// referenceTick is the per-sample mixer Tick replaced: it scans every
// stream ever seen, sums all that play in int32, clips, and re-encodes
// each sample by a bit scan, whatever the number of streams. It records
// each played block's latency by the rule written out here: a block
// stamped after 0 took now − stamp to the mixing pop and a block more
// in the codec's output fifo. It then rebuilds m.playing from the
// active flags, so Deliver and ActiveStreams read the reference's own
// state.
func referenceTick(m *Mixer, now int64) ([]byte, int) {
	m.ticks++
	var sum [segment.BlockSamples]int32
	mixed := 0
	for _, s := range m.streams {
		if !s.active {
			continue
		}
		it, ok := s.buf.PopItem()
		if !ok {
			s.active = false
			if s.retired {
				s.buf.Free()
			} else {
				s.buf.Drain()
			}
			m.cfg.Obs.Tracer().Emit(obs.EvStreamClose, m.source, s.id, "stream deactivated")
			continue
		}
		for i := range sum {
			sum[i] += int32(mulaw.Decode(it.Data[i]))
		}
		if it.Stamp > 0 {
			if s.playout == nil {
				s.playout = obs.NewHistogram()
			}
			lat := time.Duration(now-it.Stamp) + segment.BlockDuration
			s.playout.Observe(lat)
			m.playout.Observe(lat)
		}
		it.W.Release()
		mixed++
	}
	for i, v := range sum {
		switch {
		case v > 32767:
			v = 32767
		case v < -32768:
			v = -32768
		}
		m.out[i] = bitScanEncode(int16(v))
	}
	m.playing = m.playing[:0]
	for _, s := range m.streams {
		if s.active {
			m.playing = append(m.playing, s)
		}
	}
	return m.out[:], mixed
}

// fuzzIDs are the streams a fuzzed schedule addresses, by three bits.
var fuzzIDs = [8]uint32{1, 2, 3, 17, 64, 65, 1000, 1 << 31}

// fuzzSchedule decodes a schedule from fuzz input. A step is one byte
// c; a delivery follows it with one byte a and 1–16 bytes of samples,
// repeated to fill each block of the segment:
//
//	c&3     0, 1: deliver; 2: retire (c&0x40), else shed (c&0x20)
//	        or restore; 3: tick
//	c>>2&7  the stream, an index into fuzzIDs
//	c>>5    delivery sequence: 0–4 next in order, 5 a gap of one,
//	        6 a late duplicate, 7 a gap of three
//	a&3     blocks in the segment, less one (3 reads as 0)
//	a>>2    sample bytes that follow, less one
func fuzzSchedule(data []byte) []op {
	var ops []op
	var next [len(fuzzIDs)]uint32
	var now int64
	for len(data) > 0 {
		c := data[0]
		data = data[1:]
		k := c >> 2 & 7
		id := fuzzIDs[k]
		switch c & 3 {
		case 0, 1:
			if len(data) == 0 {
				return ops
			}
			nblocks, n := 1+int(data[0]&3)%3, 1+int(data[0]>>2)
			data = data[1:]
			if len(data) < n {
				return ops
			}
			pattern := data[:n]
			data = data[n:]
			seq := next[k]
			switch c >> 5 {
			case 5:
				seq++
			case 6:
				seq--
			case 7:
				seq += 3
			}
			next[k] = seq + 1
			samples := make([]byte, nblocks*segment.BlockSamples)
			for i := range samples {
				samples[i] = pattern[i%segment.BlockSamples%len(pattern)]
			}
			ops = append(ops, op{kind: opDeliver, id: id, seq: seq, data: samples, now: now})
		case 2:
			if c&0x40 != 0 {
				ops = append(ops, op{kind: opRetire, id: id})
				break
			}
			ops = append(ops, op{kind: opShed, id: id, shed: c&0x20 != 0})
		case 3:
			now += int64(segment.BlockDuration)
			ops = append(ops, op{kind: opTick, now: now})
		}
	}
	return ops
}

// latencies summarises a playout histogram for comparison: its count,
// extremes, mean and three percentiles.
func latencies(h *obs.Histogram) [7]time.Duration {
	return [7]time.Duration{time.Duration(h.Count()), h.Min(), h.Max(), h.Mean(),
		h.Percentile(10), h.Percentile(50), h.Percentile(90)}
}

// FuzzMixerTick runs one schedule into two mixers, one ticked by Tick
// and one by referenceTick, and requires the same bytes, the same
// count, the same playout histograms for every stream and the mixer
// after every tick, the same active streams, the same trace and the
// same statistics for every stream. The mixer's histogram must count
// what its streams' do together, and a retire must leave a stream's
// statistics and histogram as they were.
func FuzzMixerTick(f *testing.F) {
	loud := bytes.Repeat([]byte{0x80}, segment.BlockSamples)
	edges := []byte{0x00, 0x7F, 0x80, 0xFF}
	deliver := func(k, seqMode byte, nblocks byte, pattern []byte) []byte {
		return append([]byte{seqMode<<5 | k<<2, byte(len(pattern)-1)<<2 | (nblocks - 1)}, pattern...)
	}
	tick := []byte{3}
	var saturate, alone, churn []byte
	for k := byte(4); k > 0; k-- { // arriving against id order
		saturate = append(saturate, deliver(k-1, 0, 3, loud)...)
	}
	saturate = append(saturate, bytes.Repeat(tick, 5)...)
	alone = append(append(deliver(0, 0, 2, edges), tick...), deliver(0, 0, 1, []byte{0x01, 0xFE})...)
	alone = append(alone, bytes.Repeat(tick, 4)...)
	churn = append(churn, deliver(1, 0, 2, loud)...)
	churn = append(churn, deliver(5, 0, 1, edges)...)
	churn = append(churn, tick...)
	churn = append(churn, deliver(1, 5, 2, edges)...) // gap
	churn = append(churn, deliver(1, 6, 1, loud)...)  // late duplicate
	churn = append(churn, 2|1<<2|0x20, 3, 2|1<<2)     // shed, tick, restore
	churn = append(churn, deliver(1, 0, 3, []byte{0x7F})...)
	churn = append(churn, bytes.Repeat(tick, 7)...)
	// Retire a stream while it plays, again once it is dry, then a
	// straggler grows its freed buffer anew.
	retire := append(deliver(2, 0, 2, loud), 2|2<<2|0x40)
	retire = append(retire, bytes.Repeat(tick, 3)...)
	retire = append(retire, 2|2<<2|0x40)
	retire = append(retire, deliver(2, 0, 1, edges)...)
	retire = append(retire, bytes.Repeat(tick, 2)...)
	for _, seed := range [][]byte{saturate, alone, churn, retire} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ref := New(Config{Obs: obs.New(nil)}), New(Config{Obs: obs.New(nil)})
		for step, o := range fuzzSchedule(data) {
			switch o.kind {
			case opDeliver:
				o.deliver(fast)
				o.deliver(ref)
			case opShed:
				fast.SetShed(o.id, o.shed)
				ref.SetShed(o.id, o.shed)
			case opRetire:
				stats, lat := fast.Stats(o.id), latencies(fast.Playout(o.id))
				fast.Retire(o.id)
				ref.Retire(o.id)
				if a, b := fast.Stats(o.id), latencies(fast.Playout(o.id)); a != stats || b != lat {
					t.Fatalf("step %d: retiring stream %d moved its stats %+v to %+v, playout %v to %v", step, o.id, stats, a, lat, b)
				}
			case opTick:
				blk, mixed := fast.Tick(o.now)
				wantBlk, wantMixed := referenceTick(ref, o.now)
				if !bytes.Equal(blk, wantBlk) || mixed != wantMixed {
					t.Fatalf("step %d: Tick gave % x mixing %d, reference % x mixing %d", step, blk, mixed, wantBlk, wantMixed)
				}
				n := 0
				for _, id := range fuzzIDs {
					a, b := latencies(fast.Playout(id)), latencies(ref.Playout(id))
					if a != b {
						t.Fatalf("step %d: stream %d played latencies %v, reference %v", step, id, a, b)
					}
					n += int(a[0])
				}
				a, b := latencies(fast.PlayoutAll()), latencies(ref.PlayoutAll())
				if a != b || int(a[0]) != n {
					t.Fatalf("step %d: mixer played latencies %v, reference %v, its streams %d", step, a, b, n)
				}
			}
			if a, b := fast.ActiveStreams(), ref.ActiveStreams(); a != b {
				t.Fatalf("step %d: %d active streams, reference %d", step, a, b)
			}
		}
		for _, id := range fuzzIDs {
			if a, b := fast.Stats(id), ref.Stats(id); a != b {
				t.Fatalf("stream %d: stats %+v, reference %+v", id, a, b)
			}
		}
		if a, b := fast.cfg.Obs.Tracer().Events(), ref.cfg.Obs.Tracer().Events(); !reflect.DeepEqual(a, b) {
			t.Fatalf("trace %v, reference %v", a, b)
		}
	})
}

// TestTickAllocatesNothingWhateverItMixes: a tick that mixes one
// stream, two, or three that saturate allocates nothing.
func TestTickAllocatesNothingWhateverItMixes(t *testing.T) {
	const ticks = 40
	for streams := 1; streams <= 3; streams++ {
		m := New(Config{})
		blocks := bytes.Repeat([]byte{0x80}, 2*segment.BlockSamples)
		for seq := uint32(0); seq <= ticks/2; seq++ {
			for id := uint32(1); id <= uint32(streams); id++ {
				op{id: id, seq: seq, data: blocks}.deliver(m)
			}
		}
		var mixes [4]int
		allocs := testing.AllocsPerRun(ticks, func() {
			_, mixed := m.Tick(0)
			mixes[mixed]++
		})
		if mixes[streams] != ticks+1 {
			t.Fatalf("%d streams: ticks mixed 0/1/2/3 streams %v times, want all %d", streams, mixes, streams)
		}
		if allocs != 0 {
			t.Errorf("a tick mixing %d streams allocates %.1f objects", streams, allocs)
		}
	}
}

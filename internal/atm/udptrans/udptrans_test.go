package udptrans

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/segment"
)

func testWire(t testing.TB, seq uint32) segment.Wire {
	t.Helper()
	blk := make([]byte, segment.BlockSamples)
	for i := range blk {
		blk[i] = byte(seq + uint32(i))
	}
	return segment.WireOver(segment.NewAudio(seq, 0, [][]byte{blk}).Encode(nil))
}

func TestCodecRoundTrip(t *testing.T) {
	w := testWire(t, 7)
	in := atm.Message{VCI: 42, Size: len(w.Bytes()), W: w, ChunkIndex: 1, ChunkTotal: 3, Corrupt: true}
	d, err := Encode(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.VCI != in.VCI || out.Size != in.Size || out.ChunkIndex != 1 ||
		out.ChunkTotal != 3 || !out.Corrupt {
		t.Fatalf("header mismatch: %+v", out)
	}
	if string(out.W.Bytes()) != string(w.Bytes()) {
		t.Fatal("payload mismatch")
	}
	if out.W.Seq() != 7 {
		t.Fatalf("decoded segment seq %d", out.W.Seq())
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("short datagram accepted")
	}
	w := testWire(t, 1)
	d, err := Encode(nil, atm.Message{VCI: 1, Size: 10, W: w})
	if err != nil {
		t.Fatal(err)
	}
	d[0] ^= 0xff
	if _, err := Decode(d); err == nil {
		t.Fatal("bad magic accepted")
	}
	d[0] ^= 0xff
	d[len(d)-1] = 0xff // corrupt the segment body length consistency
	d = d[:len(d)-1]
	if _, err := Decode(d); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestDecodeRejectsSizeBeyondPayload(t *testing.T) {
	// netIn charges copy time by Size: one datagram claiming 4 GB would
	// cost the server board a minute of virtual CPU.
	w := testWire(t, 1)
	payload := uint32(len(w.Bytes()))
	for _, size := range []uint32{payload, payload + 1, 1 << 31, 0xFFFFFFFF} {
		d, err := Encode(nil, atm.Message{VCI: 1, W: w})
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(d[10:], size)
		m, err := Decode(d)
		if ok := size <= payload; (err == nil) != ok {
			t.Errorf("Size %d over a %d-byte payload: accepted %v (err %v), want %v", size, payload, err == nil, err, ok)
		} else if ok && m.Size != int(size) {
			t.Errorf("Size %d decoded as %d", size, m.Size)
		}
	}
}

// FuzzDecode feeds Decode arbitrary datagrams: it never panics, and a
// datagram it accepts is one Encode writes back byte for byte. Run
// longer with:
//
//	go test -fuzz=FuzzDecode -fuzztime=60s ./internal/atm/udptrans
func FuzzDecode(f *testing.F) {
	w := testWire(f, 3)
	for _, m := range []atm.Message{
		{VCI: 42, Size: len(w.Bytes()), W: w, ChunkIndex: 1, ChunkTotal: 3, Corrupt: true},
		{VCI: 7, Size: 5, W: w},
	} {
		d, err := Encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(d)
		f.Add(d[:len(d)-1])
	}
	f.Fuzz(func(t *testing.T, d []byte) {
		m, err := Decode(d)
		if err != nil {
			return
		}
		again, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("accepted %x, which does not encode again: %v", d, err)
		}
		if !bytes.Equal(again, d) {
			t.Fatalf("accepted %x, which encodes again as %x", d, again)
		}
	})
}

// TestBatcherRoundTrip drives a Batcher over a loopback socket pair:
// mixed Add/AddRaw traffic, a forced mid-stream flush, and the
// batch/datagram counters. Skipped where sockets are unavailable.
func TestBatcherRoundTrip(t *testing.T) {
	rx, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	defer rx.Close()
	tx, err := Dial(rx.Addr())
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	defer tx.Close()

	b := NewBatcher(tx, 4)
	const n = 10
	var raw []byte
	for i := uint32(0); i < n; i++ {
		w := testWire(t, i)
		m := atm.Message{VCI: 200 + i, Size: len(w.Bytes()), W: w}
		if i%2 == 0 {
			if err := b.Add(m); err != nil {
				t.Fatalf("add %d: %v", i, err)
			}
		} else {
			raw, err = Encode(raw[:0], m)
			if err != nil {
				t.Fatalf("encode %d: %v", i, err)
			}
			if err := b.AddRaw(raw); err != nil {
				t.Fatalf("addraw %d: %v", i, err)
			}
		}
		if i == 5 {
			if err := b.Flush(); err != nil {
				t.Fatalf("mid-stream flush: %v", err)
			}
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	if b.Len() != 0 {
		t.Fatalf("batch not empty after flush: %d", b.Len())
	}
	batches, msgs := b.Stats()
	if msgs != n {
		t.Fatalf("batcher counted %d datagrams, sent %d", msgs, n)
	}
	if batches == 0 || batches > n {
		t.Fatalf("implausible batch count %d", batches)
	}

	var got []atm.Message
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < n && time.Now().Before(deadline) {
		got = append(got, rx.Drain()...)
		if len(got) < n {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if len(got) < n {
		t.Skipf("only %d of %d datagrams arrived — lossy loopback, not a batcher failure", len(got), n)
	}
	seen := make(map[uint32]uint32)
	for _, m := range got {
		seen[m.VCI] = m.W.Seq()
	}
	for i := uint32(0); i < n; i++ {
		if seq, ok := seen[200+i]; !ok || seq != i {
			t.Fatalf("VCI %d: got seq %d (present %v); all %v", 200+i, seq, ok, seen)
		}
	}
	if rx.DecodeErrs() != 0 {
		t.Fatalf("%d decode errors on clean batched traffic", rx.DecodeErrs())
	}
}

// TestLoopbackRoundTrip sends messages through a real UDP socket pair
// on the loopback interface. Skipped where sockets are unavailable
// (sandboxed builders).
func TestLoopbackRoundTrip(t *testing.T) {
	rx, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	defer rx.Close()
	tx, err := Dial(rx.Addr())
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	defer tx.Close()

	const n = 5
	for i := uint32(0); i < n; i++ {
		w := testWire(t, i)
		if err := tx.Send(nil, atm.Message{VCI: 100 + i, Size: len(w.Bytes()), W: w}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	var got []atm.Message
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < n && time.Now().Before(deadline) {
		got = append(got, rx.Drain()...)
		if len(got) < n {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if len(got) < n {
		t.Skipf("only %d of %d datagrams arrived — lossy loopback, not a codec failure", len(got), n)
	}
	seen := make(map[uint32]uint32)
	for _, m := range got {
		seen[m.VCI] = m.W.Seq()
	}
	for i := uint32(0); i < n; i++ {
		if seq, ok := seen[100+i]; !ok || seq != i {
			t.Fatalf("VCI %d: got seq %d (present %v); all %v", 100+i, seq, ok, seen)
		}
	}
	if rx.DecodeErrs() != 0 {
		t.Fatalf("%d decode errors on clean traffic", rx.DecodeErrs())
	}
}

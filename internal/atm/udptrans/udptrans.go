// Package udptrans carries atm.Messages between Pandora boxes running
// as separate OS processes, one datagram per message over UDP — the
// pluggable socket backend of the atm.Transport seam (cmd/pandora-node
// uses it to run a conference as real processes). UDP is a fair stand
// in for an ATM virtual circuit: unreliable, unordered, message
// oriented, with the VCI riding in the datagram header the way it
// rides in the cell header.
//
// Ownership at this boundary follows the atm.Transport contract: Send
// serialises the message into a datagram (the one copy a process
// boundary forces), then releases the message's wire reference — the
// bytes have left the process. On error the reference stays with the
// caller. Received datagrams decode into unmanaged wires
// (segment.ParseWire) over the datagram's own storage: Retain/Release
// are no-ops on them, and the receiving box's single copy-in at its
// pool boundary works exactly as it does for in-process delivery.
// Wire pools are never shared across the socket — they are not
// thread-safe, and each process owns its own.
//
// The Receiver is the one place in the tree where a real OS thread
// runs alongside the virtual-time runtime: a goroutine blocks on the
// socket and queues raw datagrams under a mutex, and the host process
// drains the queue between runtime quanta (see cmd/pandora-node),
// keeping the runtime itself single-threaded and deterministic given
// the same arrival batches.
package udptrans

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"repro/internal/atm"
	"repro/internal/occam"
	"repro/internal/segment"
)

// Datagram header: magic, version, flags, VCI, chunk index/total,
// payload length. Size on the simulated network is carried so the
// receiver sees the same accounting a chunked in-process message has.
const (
	magic      = 0x504e4455 // "PNDU"
	codecVer   = 1
	headerSize = 4 + 1 + 1 + 4 + 4 + 2 + 2 + 4

	flagCorrupt = 1 << 0
)

// MaxPayload bounds the encodable wire size: one segment must fit a
// single datagram under the usual 64 KB UDP limit.
const MaxPayload = 60_000

// Encode serialises m (header fields plus the full wire bytes) into a
// datagram, appending to dst. The wire reference is untouched.
func Encode(dst []byte, m atm.Message) ([]byte, error) {
	b := m.W.Bytes()
	if len(b) > MaxPayload {
		return dst, fmt.Errorf("udptrans: segment of %d bytes exceeds %d-byte datagram bound", len(b), MaxPayload)
	}
	var flags byte
	if m.Corrupt {
		flags |= flagCorrupt
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:], magic)
	hdr[4] = codecVer
	hdr[5] = flags
	binary.BigEndian.PutUint32(hdr[6:], m.VCI)
	binary.BigEndian.PutUint32(hdr[10:], uint32(m.Size))
	binary.BigEndian.PutUint16(hdr[14:], uint16(m.ChunkIndex))
	binary.BigEndian.PutUint16(hdr[16:], uint16(m.ChunkTotal))
	binary.BigEndian.PutUint32(hdr[18:], uint32(len(b)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, b...)
	return dst, nil
}

// Decode parses one datagram into a message whose wire is an
// unmanaged view over buf (buf must stay untouched while the message
// lives; Retain/Release on it are no-ops). It accepts only what Encode
// could have written: known flags, a payload within MaxPayload, and a
// Size no larger than the payload — an honest sender's Size is its
// wire's length or a chunk of it, and a receiver charges copy time by
// Size.
func Decode(buf []byte) (atm.Message, error) {
	var m atm.Message
	if len(buf) < headerSize {
		return m, fmt.Errorf("udptrans: datagram of %d bytes shorter than header", len(buf))
	}
	if got := binary.BigEndian.Uint32(buf[0:]); got != magic {
		return m, fmt.Errorf("udptrans: bad magic %08x", got)
	}
	if buf[4] != codecVer {
		return m, fmt.Errorf("udptrans: version %d, want %d", buf[4], codecVer)
	}
	if f := buf[5] &^ flagCorrupt; f != 0 {
		return m, fmt.Errorf("udptrans: unknown flags %#x", f)
	}
	n := binary.BigEndian.Uint32(buf[18:])
	body := buf[headerSize:]
	if uint32(len(body)) != n {
		return m, fmt.Errorf("udptrans: payload %d bytes, header says %d", len(body), n)
	}
	if n > MaxPayload {
		return m, fmt.Errorf("udptrans: payload of %d bytes exceeds %d-byte datagram bound", n, MaxPayload)
	}
	// Compared as sent, so no Size becomes a negative int on the way.
	size := binary.BigEndian.Uint32(buf[10:])
	if size > n {
		return m, fmt.Errorf("udptrans: size %d exceeds the %d-byte payload", size, n)
	}
	m.Corrupt = buf[5]&flagCorrupt != 0
	m.VCI = binary.BigEndian.Uint32(buf[6:])
	m.Size = int(size)
	m.ChunkIndex = int32(binary.BigEndian.Uint16(buf[14:]))
	m.ChunkTotal = int32(binary.BigEndian.Uint16(buf[16:]))
	w, err := segment.ParseWire(body)
	if err != nil {
		return m, fmt.Errorf("udptrans: %w", err)
	}
	m.W = w
	return m, nil
}

// Transport sends every message to one peer address over UDP. It
// implements atm.Transport; use one Transport per peer and multiplex
// by VCI above it (cmd/pandora-node's vciMux).
type Transport struct {
	conn *net.UDPConn
	peer string
	buf  []byte
}

// Dial binds an ephemeral local UDP socket connected to addr.
func Dial(addr string) (*Transport, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	return &Transport{conn: conn, peer: addr}, nil
}

// TransportName implements atm.Transport.
func (t *Transport) TransportName() string { return "udp:" + t.peer }

// Send implements atm.Transport: one datagram per message. On success
// the message's wire reference is released — the bytes have crossed
// the process boundary; on error it stays with the caller.
func (t *Transport) Send(p *occam.Proc, m atm.Message) error {
	out, err := Encode(t.buf[:0], m)
	if err != nil {
		return err
	}
	t.buf = out[:0] // keep the grown buffer for reuse
	if _, err := t.conn.Write(out); err != nil {
		return fmt.Errorf("udptrans: %s: %w", t.peer, err)
	}
	m.W.Release()
	return nil
}

// Write sends one already-encoded datagram — the raw half of Send,
// for muxes that encode once and fan the same datagram out to several
// peers (cmd/pandora-node).
func (t *Transport) Write(datagram []byte) error {
	if _, err := t.conn.Write(datagram); err != nil {
		return fmt.Errorf("udptrans: %s: %w", t.peer, err)
	}
	return nil
}

// Close releases the socket.
func (t *Transport) Close() error { return t.conn.Close() }

// DefaultBatch is a Batcher's default maximum datagrams per flush.
const DefaultBatch = 16

// Batcher coalesces outgoing datagrams for one peer socket and sends
// each batch with a single syscall (sendmmsg on Linux, a write loop
// elsewhere). Datagrams are encoded back to back into one reused
// arena, so a steady stream costs zero allocations and one syscall per
// batch instead of one per message. Latency is bounded by the caller:
// Add flushes when the batch is full, and the owner flushes on its own
// deadline (cmd/pandora-node flushes every run quantum and whenever
// the configured flush interval of virtual time has passed).
type Batcher struct {
	t     *Transport
	max   int
	arena []byte // encoded datagrams, back to back
	ends  []int  // end offset of each datagram in arena
	sys   batchSender

	batches uint64
	msgs    uint64
}

// NewBatcher wraps t with batching; maxBatch <= 0 selects
// DefaultBatch.
func NewBatcher(t *Transport, maxBatch int) *Batcher {
	if maxBatch <= 0 {
		maxBatch = DefaultBatch
	}
	return &Batcher{t: t, max: maxBatch}
}

// Len returns the number of datagrams waiting in the batch.
func (b *Batcher) Len() int { return len(b.ends) }

// Stats returns how many batches were flushed and how many datagrams
// they carried (the syscall amortisation ratio).
func (b *Batcher) Stats() (batches, datagrams uint64) { return b.batches, b.msgs }

// Add encodes m into the batch arena, flushing first if the batch is
// full. The message's wire reference is untouched (callers that own it
// release it after fanning out, per the Send contract).
func (b *Batcher) Add(m atm.Message) error {
	if len(b.ends) >= b.max {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	out, err := Encode(b.arena, m)
	if err != nil {
		return err
	}
	b.arena = out
	b.ends = append(b.ends, len(out))
	return nil
}

// AddRaw appends one already-encoded datagram (the fan-out path: the
// mux encodes once and hands the same bytes to every peer's batcher,
// which must copy because each batch arena has its own lifetime).
func (b *Batcher) AddRaw(datagram []byte) error {
	if len(b.ends) >= b.max {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	b.arena = append(b.arena, datagram...)
	b.ends = append(b.ends, len(b.arena))
	return nil
}

// Flush sends every queued datagram in one syscall where the platform
// allows and resets the batch. A no-op when the batch is empty. The
// batch is discarded even when the send fails — UDP datagrams that
// could not leave are lost, exactly like datagrams lost in flight —
// and the error reports the loss to the caller.
func (b *Batcher) Flush() error {
	if len(b.ends) == 0 {
		return nil
	}
	err := b.sys.send(b.t, b.arena, b.ends)
	if err == nil {
		b.batches++
		b.msgs += uint64(len(b.ends))
	}
	b.arena = b.arena[:0]
	b.ends = b.ends[:0]
	return err
}

// sendLoop is the portable batch submission: one Write per datagram.
// Used directly on platforms without sendmmsg and as the fallback when
// the raw connection is unavailable.
func sendLoop(t *Transport, arena []byte, ends []int) error {
	start := 0
	for _, end := range ends {
		if err := t.Write(arena[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// Receiver owns a listening UDP socket and a goroutine that queues
// arriving datagrams; the virtual-time side drains them between run
// quanta with Drain.
type Receiver struct {
	conn *net.UDPConn

	mu     sync.Mutex
	queue  [][]byte
	errs   uint64
	closed bool
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts the reader
// goroutine. Addr() reports the bound address.
func Listen(addr string) (*Receiver, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	r := &Receiver{conn: conn}
	go r.run()
	return r, nil
}

// Addr returns the bound listen address.
func (r *Receiver) Addr() string { return r.conn.LocalAddr().String() }

func (r *Receiver) run() {
	buf := make([]byte, MaxPayload+headerSize+1)
	for {
		n, _, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return
			}
			r.mu.Lock()
			r.errs++
			r.mu.Unlock()
			continue
		}
		datagram := make([]byte, n)
		copy(datagram, buf[:n])
		r.mu.Lock()
		r.queue = append(r.queue, datagram)
		r.mu.Unlock()
	}
}

// Drain decodes and returns every queued datagram. Undecodable
// datagrams are dropped and counted (DecodeErrs) — the AAL checksum
// discard of §3.8, at the process boundary.
func (r *Receiver) Drain() []atm.Message {
	r.mu.Lock()
	pending := r.queue
	r.queue = nil
	r.mu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	out := make([]atm.Message, 0, len(pending))
	for _, d := range pending {
		m, err := Decode(d)
		if err != nil {
			r.mu.Lock()
			r.errs++
			r.mu.Unlock()
			continue
		}
		out = append(out, m)
	}
	return out
}

// DecodeErrs returns the count of datagrams dropped as undecodable
// plus transient socket read errors.
func (r *Receiver) DecodeErrs() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errs
}

// Close stops the reader goroutine and releases the socket.
func (r *Receiver) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return r.conn.Close()
}

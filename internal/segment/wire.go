package segment

import (
	"encoding/binary"
	"fmt"
)

// Wire is an encoded segment: the wire bytes of exactly one audio or
// video segment, usually in pooled storage, with a lazily-decoded
// header view. It is the one buffer type the whole data path moves
// (§3.4): data is copied once into a wire at its source and once out
// at each output device; every layer in between — allocator buffers,
// the server switch, decoupling buffers, ATM messages, clawback queues
// — passes the same Wire by value and reads header fields in place.
//
// A Wire from a WirePool is reference counted. The creator starts with
// one reference; passing a wire to exactly one consumer transfers that
// reference (no counter traffic); fanning out to n consumers requires
// Retain(n-1); whoever finishes with a reference calls Release. When
// the count reaches zero the storage returns to its pool, so holding a
// released Wire (or a sub-slice of its bytes) is a use-after-free.
// The runtime serialises all process code, so the counters need no
// locking. The zero Wire and wires from ParseWire/WireOver are
// unmanaged: Retain and Release are no-ops and the bytes live as long
// as the Go slice.
type Wire struct {
	b   []byte
	ctl *wireCtl
}

// wireCtl is the refcount + backing storage record shared by all
// copies of one pooled Wire.
type wireCtl struct {
	refs int
	arr  []byte // pooled storage; w.b aliases a prefix of it
	pool *WirePool
}

// IsZero reports whether the wire is the zero value (no segment).
func (w Wire) IsZero() bool { return w.b == nil }

// Len returns the encoded segment size in bytes.
func (w Wire) Len() int { return len(w.b) }

// Bytes returns the wire bytes. The slice is only valid while the
// caller holds a reference.
func (w Wire) Bytes() []byte { return w.b }

// In-place views of the common header (figure 3.1/3.2). Callers must
// hold a wire of at least CommonHeaderSize bytes — guaranteed for any
// wire from a pool Encode/Copy or a successful ParseWire.

// Seq returns the stream sequence number field.
func (w Wire) Seq() uint32 { return binary.BigEndian.Uint32(w.b[4:]) }

// Timestamp returns the source timestamp field (64 µs ticks).
func (w Wire) Timestamp() uint32 { return binary.BigEndian.Uint32(w.b[8:]) }

// Type returns the segment type field.
func (w Wire) Type() Type { return Type(binary.BigEndian.Uint32(w.b[12:])) }

// SetTimestamp re-stamps the segment in place (repository playback
// re-stamps stored segments on the way out, §2.1). The caller must
// hold the only reference.
func (w Wire) SetTimestamp(ts uint32) { binary.BigEndian.PutUint32(w.b[8:], ts) }

// Audio views, valid on wires of Type TypeAudio or TypeTest.

// AudioBlocks returns the number of 2 ms blocks carried.
func (w Wire) AudioBlocks() int { return (len(w.b) - AudioHeaderSize) / BlockSamples }

// AudioBlock returns the i'th 16-sample block, aliasing the wire.
func (w Wire) AudioBlock(i int) []byte {
	off := AudioHeaderSize + i*BlockSamples
	return w.b[off : off+BlockSamples]
}

// DecodeAudio fully decodes an audio wire, copying the sample data —
// the copy-out a sink performs once (e.g. the repository at record).
func (w Wire) DecodeAudio() (*Audio, error) {
	a, _, err := DecodeAudio(w.b)
	return a, err
}

// DecodeVideoInto decodes a video wire into *v without copying pixel
// data: v.Data aliases the wire bytes and v.Args reuses its previous
// capacity. The view is only valid while the caller holds its
// reference; sinks must finish with v before releasing the wire.
func (w Wire) DecodeVideoInto(v *Video) error {
	c, rest, err := decodeCommon(w.b)
	if err != nil {
		return err
	}
	if c.Type != TypeVideo {
		return fmt.Errorf("%w: %v", ErrBadType, c.Type)
	}
	if len(rest) < 8*4 {
		return ErrShort
	}
	v.Common = c
	v.FrameNumber = binary.BigEndian.Uint32(rest[0:])
	v.NumSegments = binary.BigEndian.Uint32(rest[4:])
	v.SegmentNum = binary.BigEndian.Uint32(rest[8:])
	v.XOffset = binary.BigEndian.Uint32(rest[12:])
	v.YOffset = binary.BigEndian.Uint32(rest[16:])
	v.PixelFormat = binary.BigEndian.Uint32(rest[20:])
	v.Compression = binary.BigEndian.Uint32(rest[24:])
	nargs := binary.BigEndian.Uint32(rest[28:])
	rest = rest[32:]
	if nargs > 64 {
		return fmt.Errorf("%w: %d compression args", ErrBadLength, nargs)
	}
	if uint32(len(rest)) < nargs*4+4*4 {
		return ErrShort
	}
	v.Args = v.Args[:0]
	for i := 0; i < int(nargs); i++ {
		v.Args = append(v.Args, binary.BigEndian.Uint32(rest[4*i:]))
	}
	rest = rest[4*nargs:]
	v.Width = binary.BigEndian.Uint32(rest[0:])
	v.StartLine = binary.BigEndian.Uint32(rest[4:])
	v.NumLines = binary.BigEndian.Uint32(rest[8:])
	n := binary.BigEndian.Uint32(rest[12:])
	rest = rest[16:]
	if uint32(len(rest)) < n {
		return ErrShort
	}
	v.Data = rest[:n:n]
	if v.Length != uint32(videoFixedHeaderSize+4*int(nargs)+int(n)) {
		return ErrBadLength
	}
	return nil
}

// Retain adds n references on a pooled wire (fan-out to n+1 consumers
// total). No-op on unmanaged wires.
func (w Wire) Retain(n int) {
	if w.ctl != nil {
		w.ctl.refs += n
	}
}

// Release drops one reference; at zero the storage returns to its
// pool. Releasing more references than were taken panics — the same
// invariant the buffer allocator enforces (§3.4). No-op on unmanaged
// wires.
func (w Wire) Release() {
	c := w.ctl
	if c == nil {
		return
	}
	c.refs--
	if c.refs == 0 {
		c.pool.put(c)
		return
	}
	if c.refs < 0 {
		panic("segment: wire over-released")
	}
}

// validateWire structurally checks one encoded segment without
// allocating: header sizes, version, type, data lengths and the
// total-length field must all be consistent with len(b).
func validateWire(b []byte) error {
	if len(b) < CommonHeaderSize {
		return ErrShort
	}
	if v := binary.BigEndian.Uint32(b[0:]); v != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	length := binary.BigEndian.Uint32(b[16:])
	switch Type(binary.BigEndian.Uint32(b[12:])) {
	case TypeAudio, TypeTest:
		if len(b) < AudioHeaderSize {
			return ErrShort
		}
		n := binary.BigEndian.Uint32(b[AudioHeaderSize-4:])
		if uint32(len(b)-AudioHeaderSize) < n {
			return ErrShort
		}
		if n%BlockSamples != 0 {
			return ErrRagged
		}
		if length != AudioHeaderSize+n || int(length) != len(b) {
			return ErrBadLength
		}
	case TypeVideo:
		if len(b) < videoFixedHeaderSize {
			return ErrShort
		}
		nargs := binary.BigEndian.Uint32(b[CommonHeaderSize+28:])
		if nargs > 64 {
			return fmt.Errorf("%w: %d compression args", ErrBadLength, nargs)
		}
		rest := b[CommonHeaderSize+32:]
		if uint32(len(rest)) < nargs*4+4*4 {
			return ErrShort
		}
		rest = rest[4*nargs:]
		n := binary.BigEndian.Uint32(rest[12:])
		if uint32(len(rest)-16) < n {
			return ErrShort
		}
		want := videoFixedHeaderSize + 4*nargs + n
		if length != want || int(length) != len(b) {
			return ErrBadLength
		}
	default:
		return fmt.Errorf("%w: %v", ErrBadType, Type(binary.BigEndian.Uint32(b[12:])))
	}
	return nil
}

// ParseWire validates buf as exactly one encoded segment and returns
// an unmanaged wire view over it (no copy, no pool). Corrupt input
// returns an error; a returned wire's header and data accessors are
// guaranteed in-bounds.
func ParseWire(buf []byte) (Wire, error) {
	if err := validateWire(buf); err != nil {
		return Wire{}, err
	}
	return Wire{b: buf}, nil
}

// WireOver wraps already-trusted bytes (a just-encoded segment) as an
// unmanaged wire without re-validating.
func WireOver(buf []byte) Wire { return Wire{b: buf} }

// WirePool recycles wire storage. It is the data path's analogue of
// the transputer's fixed buffer memory: at steady state a stream
// allocates nothing per segment. Pools are per-board/per-process and
// rely on the runtime's serialisation of user code — no locking.
type WirePool struct {
	free []*wireCtl

	// Gets counts wires handed out; News counts the subset that had
	// to allocate fresh storage (pool miss or growth). Ctls counts
	// distinct storage records ever created — News can exceed it when
	// a record's storage grows in place — so a drained pool has
	// exactly Ctls records on its free list.
	Gets uint64
	News uint64
	Ctls uint64
}

// NewWirePool returns an empty pool.
func NewWirePool() *WirePool { return &WirePool{} }

// get pops or allocates a ctl with at least size bytes of storage,
// holding one reference.
func (pl *WirePool) get(size int) *wireCtl {
	pl.Gets++
	var c *wireCtl
	if n := len(pl.free); n > 0 {
		c = pl.free[n-1]
		pl.free = pl.free[:n-1]
	} else {
		c = &wireCtl{pool: pl}
		pl.Ctls++
	}
	if cap(c.arr) < size {
		// Round storage up to a power-of-two size class: wire sizes
		// vary segment to segment (compressed video especially), and
		// exact-fit growth would re-allocate every time a small record
		// is popped for a larger request. With classes the pool
		// converges: each record grows O(log maxSize) times, ever.
		pl.News++
		n := 64
		for n < size {
			n <<= 1
		}
		c.arr = make([]byte, size, n)
	}
	c.arr = c.arr[:size]
	c.refs = 1
	return c
}

func (pl *WirePool) put(c *wireCtl) {
	pl.free = append(pl.free, c)
}

// Encode encodes s once into pooled storage — the single encode at a
// capture source — and returns the wire holding one reference.
func (pl *WirePool) Encode(s Segment) Wire {
	c := pl.get(s.WireSize())
	c.arr = s.Encode(c.arr[:0])
	return Wire{b: c.arr, ctl: c}
}

// Copy copies src (the bytes of an existing wire) into pooled storage
// — the one copy a device performs at a box boundary — and returns
// the new wire holding one reference.
func (pl *WirePool) Copy(src []byte) Wire {
	c := pl.get(len(src))
	copy(c.arr, src)
	return Wire{b: c.arr, ctl: c}
}

// FreeLen returns the number of idle storage records (tests).
func (pl *WirePool) FreeLen() int { return len(pl.free) }

// Leaked returns the number of storage records currently checked out:
// zero once every wire the pool ever handed out has been released.
func (pl *WirePool) Leaked() int { return int(pl.Ctls) - len(pl.free) }

// Package segment implements the Pandora segment formats of paper
// §3.2 and §3.3: self-contained units of audio or video data whose
// headers carry everything needed for delivery, synchronisation and
// error recovery.
//
// Every header field is 32 bits. The first five fields — version,
// sequence number, timestamp, type and length — form the common
// header shared by audio and video (figure 3.1/3.2). Timestamps have
// 64 µs resolution, derived from the transputer clock as close as
// possible to the data source, relative to box boot and not drift
// corrected.
//
// Within a box, segments travel preceded by an extra 32-bit stream
// number field (§3.4); on the ATM network the stream number rides in
// the VCI instead.
//
// Ownership: encoded segments move as Wire values — reference-counted
// descriptors over pooled storage (§3.4's buffer discipline applied to
// the wire format). Passing a Wire transfers exactly one reference;
// call Retain(n) before handing it to n *additional* consumers, and
// Release exactly once per reference, which returns the storage to its
// WirePool at zero. Wires from ParseWire/WireOver are unmanaged views
// over caller-owned bytes (Retain/Release are no-ops). A WirePool is
// not thread-safe: it relies on the occam scheduler running one
// process at a time, so pools are never shared across OS processes or
// real threads.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/occam"
)

// Version is the segment format version this package implements.
const Version = 1

// Type identifies the payload class of a segment.
type Type uint32

const (
	// TypeAudio segments carry µ-law sample blocks (figure 3.1).
	TypeAudio Type = 1
	// TypeVideo segments carry part of a video frame (figure 3.2).
	TypeVideo Type = 2
	// TypeTest segments come from the software test generator in the
	// server (figure 3.3 "test in").
	TypeTest Type = 3
)

func (t Type) String() string {
	switch t {
	case TypeAudio:
		return "audio"
	case TypeVideo:
		return "video"
	case TypeTest:
		return "test"
	}
	return fmt.Sprintf("type(%d)", uint32(t))
}

// Audio timing constants (§3.2).
const (
	// SampleInterval is the codec sampling period: 125 µs, 8 kHz.
	SampleInterval = 125 * time.Microsecond
	// BlockSamples is the number of samples handled as one block.
	BlockSamples = 16
	// BlockDuration is the audio represented by one block: 2 ms.
	BlockDuration = BlockSamples * SampleInterval
	// DefaultBlocksPerSegment gives the usual 4 ms segments
	// ("We usually run with 2 blocks per segment (principle 7)").
	DefaultBlocksPerSegment = 2
	// RepositoryBlocksPerSegment is the off-line merged size: 40 ms
	// segments of 320 bytes plus a 36 byte header (§3.2).
	RepositoryBlocksPerSegment = 20
	// SampleRate is the codec rate in Hz.
	SampleRate = 8000
)

// Audio sample formats.
const (
	FormatMuLaw8 uint32 = 1
)

// Compression identifiers (audio compression was a header field but
// µ-law streams ran uncompressed; video used DPCM + sub-sampling).
const (
	CompressionNone uint32 = 0
	CompressionDPCM uint32 = 1
)

// Header sizes in bytes.
const (
	// CommonHeaderSize covers the five shared fields.
	CommonHeaderSize = 5 * 4
	// AudioHeaderSize is the complete audio header: the paper's
	// "36 byte header" (common + sampling rate, format, compression,
	// data length).
	AudioHeaderSize = CommonHeaderSize + 4*4
	// videoFixedHeaderSize covers the fixed video fields; the
	// compression argument block is variable (§3.3).
	videoFixedHeaderSize = CommonHeaderSize + 12*4
	// StreamNumberSize is the extra field preceding the header inside
	// a box (§3.4).
	StreamNumberSize = 4
)

// TimestampTick is the 64 µs resolution of segment timestamps.
const TimestampTick = 64 * time.Microsecond

// Timestamp converts a virtual instant to segment timestamp ticks.
func Timestamp(t occam.Time) uint32 {
	return uint32(int64(t) / int64(TimestampTick))
}

// TimestampTime converts segment timestamp ticks back to an instant
// (quantised to the 64 µs tick).
func TimestampTime(ts uint32) occam.Time {
	return occam.Time(int64(ts) * int64(TimestampTick))
}

// Common is the header shared by every segment type (figure 3.1).
type Common struct {
	Version   uint32
	Seq       uint32 // sequence number within the stream
	Timestamp uint32 // 64 µs ticks since box boot, stamped at source
	Type      Type
	Length    uint32 // total wire length of the segment in bytes
}

// Audio is a Pandora audio segment (figure 3.1): a header followed by
// whole 16-sample µ-law blocks.
type Audio struct {
	Common
	SamplingRate uint32 // Hz
	Format       uint32 // FormatMuLaw8
	Compression  uint32
	Data         []byte // µ-law samples, a multiple of BlockSamples
}

// Blocks returns the number of 2 ms blocks the segment carries.
func (a *Audio) Blocks() int { return len(a.Data) / BlockSamples }

// Block returns the i'th 16-sample block (aliasing Data).
func (a *Audio) Block(i int) []byte {
	return a.Data[i*BlockSamples : (i+1)*BlockSamples]
}

// Duration returns the span of audio the segment represents.
func (a *Audio) Duration() time.Duration {
	return time.Duration(a.Blocks()) * BlockDuration
}

// WireSize returns the encoded size in bytes (without stream number).
func (a *Audio) WireSize() int { return AudioHeaderSize + len(a.Data) }

// NewAudio assembles an audio segment from whole blocks, stamping the
// sequence number and source timestamp.
func NewAudio(seq uint32, at occam.Time, blocks [][]byte) *Audio {
	data := make([]byte, 0, len(blocks)*BlockSamples)
	for _, b := range blocks {
		if len(b) != BlockSamples {
			panic(fmt.Sprintf("segment: block of %d samples, want %d", len(b), BlockSamples))
		}
		data = append(data, b...)
	}
	a := &Audio{
		Common: Common{
			Version:   Version,
			Seq:       seq,
			Timestamp: Timestamp(at),
			Type:      TypeAudio,
		},
		SamplingRate: SampleRate,
		Format:       FormatMuLaw8,
		Compression:  CompressionNone,
		Data:         data,
	}
	a.Length = uint32(a.WireSize())
	return a
}

// Reset re-initialises a (reused) Audio segment in place around data,
// which must be whole 2 ms blocks. The segment aliases data, so the
// caller may only recycle the buffer after the segment has been
// encoded (or otherwise copied). It is NewAudio without the per-
// segment allocations, for hot capture loops that keep one Audio and
// one sample buffer and re-fill both.
func (a *Audio) Reset(seq uint32, at occam.Time, data []byte) *Audio {
	if len(data)%BlockSamples != 0 {
		panic(fmt.Sprintf("segment: %d samples, not whole blocks", len(data)))
	}
	*a = Audio{
		Common: Common{
			Version:   Version,
			Seq:       seq,
			Timestamp: Timestamp(at),
			Type:      TypeAudio,
		},
		SamplingRate: SampleRate,
		Format:       FormatMuLaw8,
		Compression:  CompressionNone,
		Data:         data,
	}
	a.Length = uint32(a.WireSize())
	return a
}

// Encode appends the wire form of the segment to dst.
func (a *Audio) Encode(dst []byte) []byte {
	dst = a.Common.encode(dst)
	dst = be32(dst, a.SamplingRate)
	dst = be32(dst, a.Format)
	dst = be32(dst, a.Compression)
	dst = be32(dst, uint32(len(a.Data)))
	return append(dst, a.Data...)
}

// Errors returned by the decoders.
var (
	ErrShort      = errors.New("segment: truncated")
	ErrBadVersion = errors.New("segment: unknown version")
	ErrBadType    = errors.New("segment: wrong segment type")
	ErrBadLength  = errors.New("segment: inconsistent length field")
	ErrRagged     = errors.New("segment: audio data not whole blocks")
)

// DecodeAudio parses an audio segment from the start of buf and
// returns it with the number of bytes consumed.
func DecodeAudio(buf []byte) (*Audio, int, error) {
	c, rest, err := decodeCommon(buf)
	if err != nil {
		return nil, 0, err
	}
	if c.Type != TypeAudio && c.Type != TypeTest {
		// Test segments from the server's software test generator
		// (figure 3.3) share the audio wire layout.
		return nil, 0, fmt.Errorf("%w: %v", ErrBadType, c.Type)
	}
	if len(rest) < 4*4 {
		return nil, 0, ErrShort
	}
	a := &Audio{Common: c}
	a.SamplingRate = binary.BigEndian.Uint32(rest[0:])
	a.Format = binary.BigEndian.Uint32(rest[4:])
	a.Compression = binary.BigEndian.Uint32(rest[8:])
	n := binary.BigEndian.Uint32(rest[12:])
	rest = rest[16:]
	if uint32(len(rest)) < n {
		return nil, 0, ErrShort
	}
	if n%BlockSamples != 0 {
		return nil, 0, ErrRagged
	}
	a.Data = append([]byte(nil), rest[:n]...)
	consumed := AudioHeaderSize + int(n)
	if a.Length != uint32(consumed) {
		return nil, 0, ErrBadLength
	}
	return a, consumed, nil
}

// Video is a Pandora video segment (figure 3.2). A frame may be split
// into several rectangular segments; the header places this one.
type Video struct {
	Common
	FrameNumber uint32
	NumSegments uint32 // segments in this frame
	SegmentNum  uint32 // index of this segment within the frame
	XOffset     uint32
	YOffset     uint32
	PixelFormat uint32
	Compression uint32
	Args        []uint32 // variable compression parameters (§3.3)
	Width       uint32   // x width in pixels
	StartLine   uint32   // start line y
	NumLines    uint32   // # lines y
	Data        []byte
}

// WireSize returns the encoded size in bytes (without stream number).
func (v *Video) WireSize() int {
	return videoFixedHeaderSize + 4*len(v.Args) + len(v.Data)
}

// NewVideo assembles a video segment header for a rectangle.
func NewVideo(seq uint32, at occam.Time, frame, numSegs, segNum uint32, x, y, w, startLine, lines uint32, data []byte) *Video {
	return new(Video).Reset(seq, at, frame, numSegs, segNum, x, y, w, startLine, lines, data)
}

// Reset re-initialises a (reused) Video segment in place, as NewVideo
// builds one: no compression and no Args. The segment aliases data, so
// the caller may only recycle the buffer after the segment has been
// encoded. It is NewVideo without the per-segment allocation, for hot
// capture loops, as Audio.Reset is NewAudio's.
func (v *Video) Reset(seq uint32, at occam.Time, frame, numSegs, segNum uint32, x, y, w, startLine, lines uint32, data []byte) *Video {
	*v = Video{
		Common: Common{
			Version:   Version,
			Seq:       seq,
			Timestamp: Timestamp(at),
			Type:      TypeVideo,
		},
		FrameNumber: frame,
		NumSegments: numSegs,
		SegmentNum:  segNum,
		XOffset:     x,
		YOffset:     y,
		PixelFormat: 8, // 8-bit samples
		Compression: CompressionNone,
		Width:       w,
		StartLine:   startLine,
		NumLines:    lines,
		Data:        data,
	}
	v.Length = uint32(v.WireSize())
	return v
}

// Encode appends the wire form of the segment to dst.
func (v *Video) Encode(dst []byte) []byte {
	dst = v.Common.encode(dst)
	dst = be32(dst, v.FrameNumber)
	dst = be32(dst, v.NumSegments)
	dst = be32(dst, v.SegmentNum)
	dst = be32(dst, v.XOffset)
	dst = be32(dst, v.YOffset)
	dst = be32(dst, v.PixelFormat)
	dst = be32(dst, v.Compression)
	dst = be32(dst, uint32(len(v.Args)))
	for _, a := range v.Args {
		dst = be32(dst, a)
	}
	dst = be32(dst, v.Width)
	dst = be32(dst, v.StartLine)
	dst = be32(dst, v.NumLines)
	dst = be32(dst, uint32(len(v.Data)))
	return append(dst, v.Data...)
}

// Segment is implemented by both Audio and Video segments: the common
// header plus wire encoding.
type Segment interface {
	Head() *Common
	WireSize() int
	Encode(dst []byte) []byte
}

// Head returns the common header of an audio segment.
func (a *Audio) Head() *Common { return &a.Common }

// Head returns the common header of a video segment.
func (v *Video) Head() *Common { return &v.Common }

var (
	_ Segment = (*Audio)(nil)
	_ Segment = (*Video)(nil)
)

func (c *Common) encode(dst []byte) []byte {
	dst = be32(dst, c.Version)
	dst = be32(dst, c.Seq)
	dst = be32(dst, c.Timestamp)
	dst = be32(dst, uint32(c.Type))
	return be32(dst, c.Length)
}

func decodeCommon(buf []byte) (Common, []byte, error) {
	var c Common
	if len(buf) < CommonHeaderSize {
		return c, nil, ErrShort
	}
	c.Version = binary.BigEndian.Uint32(buf[0:])
	c.Seq = binary.BigEndian.Uint32(buf[4:])
	c.Timestamp = binary.BigEndian.Uint32(buf[8:])
	c.Type = Type(binary.BigEndian.Uint32(buf[12:]))
	c.Length = binary.BigEndian.Uint32(buf[16:])
	if c.Version != Version {
		return c, nil, fmt.Errorf("%w: %d", ErrBadVersion, c.Version)
	}
	return c, buf[CommonHeaderSize:], nil
}

func be32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

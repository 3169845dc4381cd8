// Package distnet is the multi-process TCP transport behind dist.Comm: it
// lets hylo-train instances in separate OS processes (or machines) form a
// training cluster with the same collective semantics — and the same
// bit-exact arithmetic — as the in-process simulated cluster.
//
// The stack, bottom-up:
//
//   - frame.go: length-prefixed CRC-checked framing over TCP
//     (encoding/binary payloads, typed decode errors, never panics);
//   - fault.go: deterministic socket-level fault injection (drop, delay,
//     duplicate, reorder, partition) between framing and the wire;
//   - msg.go: the wire messages — join/rendezvous handshake, heartbeats,
//     and the data-plane frames (hello/up/down carrying one chunk's
//     segments);
//   - coord.go: the rank-0 coordinator, control plane only — membership
//     FSM, peer-failure detection, the snapshot blob, and the shape of each
//     generation's reduction tree (-net-topology=hub|tree), distributed in
//     start frames;
//   - link.go: the per-process control link to the coordinator — dial with
//     bounded backoff, join/blob retransmit, heartbeats;
//   - tree.go: the one data plane — per-member listeners, chunked segment
//     merging (sums in the canonical bracketing of dist/reduce.go, gathers
//     by concatenation) up the tree, results back down, ack-free
//     retransmit reliability;
//   - proc.go: Proc, hosting this process's local ranks; each rank is a
//     dist.Comm whose collectives ride the tree engine.
//
// A dead peer surfaces to local ranks as the same typed failure the
// in-process chaos layer produces (a dist.ErrClusterPoisoned panic), so
// the train.Drive recovery loop shrinks and resumes identically over both
// transports.
package distnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame is the unit of exchange on the wire: a type tag, a sequence number
// (the collective sequence for data frames, a message id for control
// frames), and an opaque payload.
type Frame struct {
	Type    byte
	Seq     uint64
	Payload []byte
}

// Wire layout (little-endian):
//
//	magic    uint32   "HYLO"
//	version  uint8    protocol version
//	type     uint8    frame type
//	reserved uint16   must be zero
//	seq      uint64
//	length   uint32   payload byte count
//	payload  [length]byte
//	crc      uint32   CRC-32 (IEEE) over version..payload
const (
	frameMagic = uint32(0x4F4C5948) // "HYLO" in little-endian byte order

	// ProtocolVersion is carried by every frame; a mismatched build's
	// frames fail to decode instead of desynchronizing later.
	ProtocolVersion = 2

	headerLen  = 4 + 1 + 1 + 2 + 8 + 4
	trailerLen = 4

	// MaxFramePayload bounds a single frame so a corrupted length prefix
	// cannot drive an unbounded allocation.
	MaxFramePayload = 1 << 26 // 64 MiB
)

// Typed framing errors. Decoders return (never panic on) these for any
// malformed input: truncated, bit-flipped, oversized, or alien bytes.
var (
	ErrBadMagic      = errors.New("distnet: bad frame magic")
	ErrBadVersion    = errors.New("distnet: protocol version mismatch")
	ErrBadReserved   = errors.New("distnet: nonzero reserved header bits")
	ErrFrameTooLarge = errors.New("distnet: frame exceeds size limit")
	ErrBadCRC        = errors.New("distnet: frame CRC mismatch")
	ErrShortFrame    = errors.New("distnet: truncated frame")
)

// AppendFrame encodes f onto dst and returns the extended slice.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = append(dst, ProtocolVersion, f.Type, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Payload...)
	crc := crc32.ChecksumIEEE(dst[start+4:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// DecodeFrame decodes one frame from the head of b, returning the frame and
// the number of bytes consumed. It validates magic, version, reserved bits,
// length bound, and CRC; the returned payload aliases b.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < headerLen {
		return Frame{}, 0, ErrShortFrame
	}
	if binary.LittleEndian.Uint32(b) != frameMagic {
		return Frame{}, 0, ErrBadMagic
	}
	if b[4] != ProtocolVersion {
		return Frame{}, 0, fmt.Errorf("%w: got %d want %d", ErrBadVersion, b[4], ProtocolVersion)
	}
	if b[6] != 0 || b[7] != 0 {
		return Frame{}, 0, ErrBadReserved
	}
	length := binary.LittleEndian.Uint32(b[16:])
	if length > MaxFramePayload {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, length)
	}
	total := headerLen + int(length) + trailerLen
	if len(b) < total {
		return Frame{}, 0, ErrShortFrame
	}
	want := binary.LittleEndian.Uint32(b[headerLen+int(length):])
	if crc32.ChecksumIEEE(b[4:headerLen+int(length)]) != want {
		return Frame{}, 0, ErrBadCRC
	}
	return Frame{
		Type:    b[5],
		Seq:     binary.LittleEndian.Uint64(b[8:]),
		Payload: b[headerLen : headerLen+int(length)],
	}, total, nil
}

// WriteFrame encodes f and writes it to w in one call (one syscall on a
// net.Conn, which is what keeps the fault injector's frame granularity
// honest: a dropped "frame" is the whole frame).
func WriteFrame(w io.Writer, f Frame) error {
	buf := AppendFrame(make([]byte, 0, headerLen+len(f.Payload)+trailerLen), f)
	_, err := w.Write(buf)
	return err
}

// ReadFrame decodes one frame from r. Truncation surfaces as ErrShortFrame
// (clean EOF at a frame boundary stays io.EOF so connection teardown is
// distinguishable from mid-frame loss).
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Frame{}, ErrShortFrame
		}
		return Frame{}, err
	}
	length := binary.LittleEndian.Uint32(hdr[16:])
	if length > MaxFramePayload {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, length)
	}
	rest := make([]byte, int(length)+trailerLen)
	if _, err := io.ReadFull(r, rest); err != nil {
		return Frame{}, ErrShortFrame
	}
	f, _, err := DecodeFrame(append(hdr[:], rest...))
	if err != nil {
		return Frame{}, err
	}
	// Re-slice so the payload owns its backing array (the append above may
	// alias hdr for tiny payloads, which is fine: it was freshly built).
	return f, nil
}

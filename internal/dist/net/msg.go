package distnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// Frame types. Control frames use Frame.Seq as a message id; data-plane
// frames (up/down) use it as the collective sequence number.
const (
	ftJoin         byte = iota + 1 // member → coordinator: rendezvous request
	ftJoinAck                      // coordinator → member: membership accepted
	ftReject                       // coordinator → member: rendezvous refused
	ftStart                        // coordinator → member: generation begins (ranks assigned)
	ftHeartbeat                    // member → coordinator: liveness probe
	ftHeartbeatAck                 // coordinator → member: probe echo
	ftPeerDead                     // coordinator → member: a member was declared dead
	ftLeave                        // member → coordinator: graceful departure
	ftBlob                         // coordinator → member: generation state blob (snapshot sync)
	ftTreeHello                    // member → tree parent: bind a data connection to (gen, member)
	ftTreeUp                       // member → tree parent: its subtree's merged segments for one chunk
	ftTreeDown                     // tree parent → member: one chunk of the finished collective
)

// Collective ops carried by ftTreeUp/ftTreeDown. The sum-style ops travel
// as float partial sums; the rest travel as per-rank byte strings that
// concatenate in rank order.
const (
	opAllReduce byte = iota + 1
	opAllGather
	opBroadcast
	opScalar
	opBarrier
	opGatherBytes
)

func opName(op byte) string {
	switch op {
	case opAllReduce:
		return "allreduce"
	case opAllGather:
		return "allgather"
	case opBroadcast:
		return "broadcast"
	case opScalar:
		return "scalar"
	case opBarrier:
		return "barrier"
	case opGatherBytes:
		return "gatherbytes"
	}
	return fmt.Sprintf("op(%d)", op)
}

func isSum(op byte) bool { return op == opAllReduce || op == opScalar }

// Join reject codes.
const (
	rejectVersion   = uint16(1) // protocol version mismatch
	rejectWorldSize = uint16(2) // world-size claim disagrees with coordinator
	rejectConfig    = uint16(3) // config digest disagrees with coordinator
	rejectFull      = uint16(4) // membership already complete
	rejectGen       = uint16(5) // stale generation (member missed a rejoin round)
)

// ErrTruncatedMsg is returned by payload decoders on short input.
var ErrTruncatedMsg = errors.New("distnet: truncated message payload")

// byteReader is a bounds-checked cursor over a message payload; every
// decode on malformed input returns ErrTruncatedMsg instead of panicking.
type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) || r.off+n < r.off {
		r.err = ErrTruncatedMsg
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *byteReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// counted reads a u32 count followed by count items of width bytes each.
func (r *byteReader) counted(width int) []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if n > MaxFramePayload {
		r.err = ErrTruncatedMsg
		return nil
	}
	return r.take(int(n) * width)
}

// bytes reads a u32 length prefix followed by that many bytes.
func (r *byteReader) bytes() []byte { return r.counted(1) }

func appendBytes(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// joinMsg is the rendezvous request: a member announces how many local
// ranks it hosts and what world it believes it is joining. MemberID 0 means
// a fresh member; nonzero reattaches an existing member (reconnect or
// rejoin at Gen+1 after a peer death).
type joinMsg struct {
	Gen          uint32
	MemberID     uint32
	NLocal       uint32
	WorldSize    uint32 // 0 = no claim (trust the coordinator)
	ConfigDigest uint64
	// Self marks the coordinator's own loopback link; it always sorts
	// first in rank assignment so global rank 0 lives with the coordinator.
	Self byte
	// DataPort is the member's tree-data listener port (0 = none). The
	// coordinator joins it with the host it observes on the control
	// connection to form the member's advertised tree-data address.
	DataPort uint32
}

func (m joinMsg) encode() []byte {
	b := make([]byte, 0, 29)
	b = binary.LittleEndian.AppendUint32(b, m.Gen)
	b = binary.LittleEndian.AppendUint32(b, m.MemberID)
	b = binary.LittleEndian.AppendUint32(b, m.NLocal)
	b = binary.LittleEndian.AppendUint32(b, m.WorldSize)
	b = binary.LittleEndian.AppendUint64(b, m.ConfigDigest)
	b = append(b, m.Self)
	return binary.LittleEndian.AppendUint32(b, m.DataPort)
}

func decodeJoin(p []byte) (joinMsg, error) {
	r := &byteReader{b: p}
	m := joinMsg{Gen: r.u32(), MemberID: r.u32(), NLocal: r.u32(),
		WorldSize: r.u32(), ConfigDigest: r.u64(), Self: r.u8(),
		DataPort: r.u32()}
	return m, r.err
}

// joinAckMsg acknowledges membership; rank assignment arrives with ftStart
// once every expected member has joined.
type joinAckMsg struct {
	MemberID uint32
	Gen      uint32
}

func (m joinAckMsg) encode() []byte {
	b := make([]byte, 0, 8)
	b = binary.LittleEndian.AppendUint32(b, m.MemberID)
	b = binary.LittleEndian.AppendUint32(b, m.Gen)
	return b
}

func decodeJoinAck(p []byte) (joinAckMsg, error) {
	r := &byteReader{b: p}
	m := joinAckMsg{MemberID: r.u32(), Gen: r.u32()}
	return m, r.err
}

// rejectMsg refuses a join with a machine-readable code.
type rejectMsg struct {
	Code   uint16
	Reason string
}

func (m rejectMsg) encode() []byte {
	b := make([]byte, 0, 2+4+len(m.Reason))
	b = binary.LittleEndian.AppendUint16(b, m.Code)
	return appendBytes(b, []byte(m.Reason))
}

func decodeReject(p []byte) (rejectMsg, error) {
	r := &byteReader{b: p}
	m := rejectMsg{Code: r.u16(), Reason: string(r.bytes())}
	return m, r.err
}

// startMsg begins a generation: the member's assigned base rank, the
// agreed world size, and the member's place in the coordinator-computed
// reduction tree.
type startMsg struct {
	Gen        uint32
	WorldSize  uint32
	BaseRank   uint32
	ChunkElems uint32 // sum-collective chunk size in float64 elements
	// TreeParent is the address of this member's tree parent's data
	// listener ("" at the root). TreeChildren are the member ids expected
	// to connect to this member's data listener. TreeDepth is this
	// member's depth in the tree (0 = root; telemetry).
	TreeParent   string
	TreeChildren []uint32
	TreeDepth    uint32
}

func (m startMsg) encode() []byte {
	b := make([]byte, 0, 28+len(m.TreeParent)+4*len(m.TreeChildren))
	b = binary.LittleEndian.AppendUint32(b, m.Gen)
	b = binary.LittleEndian.AppendUint32(b, m.WorldSize)
	b = binary.LittleEndian.AppendUint32(b, m.BaseRank)
	b = binary.LittleEndian.AppendUint32(b, m.ChunkElems)
	b = appendBytes(b, []byte(m.TreeParent))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.TreeChildren)))
	for _, c := range m.TreeChildren {
		b = binary.LittleEndian.AppendUint32(b, c)
	}
	return binary.LittleEndian.AppendUint32(b, m.TreeDepth)
}

func decodeStart(p []byte) (startMsg, error) {
	r := &byteReader{b: p}
	m := startMsg{Gen: r.u32(), WorldSize: r.u32(), BaseRank: r.u32(),
		ChunkElems: r.u32(), TreeParent: string(r.bytes())}
	n := r.u32()
	if r.err != nil {
		return m, r.err
	}
	if n > maxWorldSize {
		return m, ErrTruncatedMsg
	}
	m.TreeChildren = make([]uint32, n)
	for i := range m.TreeChildren {
		m.TreeChildren[i] = r.u32()
	}
	m.TreeDepth = r.u32()
	return m, r.err
}

// peerDeadMsg announces a declared member death; surviving members poison
// their local ranks and re-rendezvous at Gen+1.
type peerDeadMsg struct {
	Gen        uint32
	DeadMember uint32
	Reason     string
}

func (m peerDeadMsg) encode() []byte {
	b := make([]byte, 0, 8+4+len(m.Reason))
	b = binary.LittleEndian.AppendUint32(b, m.Gen)
	b = binary.LittleEndian.AppendUint32(b, m.DeadMember)
	return appendBytes(b, []byte(m.Reason))
}

func decodePeerDead(p []byte) (peerDeadMsg, error) {
	r := &byteReader{b: p}
	m := peerDeadMsg{Gen: r.u32(), DeadMember: r.u32(), Reason: string(r.bytes())}
	return m, r.err
}

// maxWorldSize bounds decoded rank counts so corrupted frames cannot drive
// huge allocations.
const maxWorldSize = 1 << 16

// Matrix payload encoding: rows, cols, then row-major float64 bits.

func appendMat(dst []byte, m *mat.Dense) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Rows()))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Cols()))
	return appendFloats(dst, m.Data())
}

func appendFloats(dst []byte, f []float64) []byte {
	for _, v := range f {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// readFloats fills dst from little-endian float64 bits; raw holds at
// least 8·len(dst) bytes.
func readFloats(dst []float64, raw []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}

func decodeMat(p []byte) (*mat.Dense, error) {
	r := &byteReader{b: p}
	rows := r.u32()
	cols := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if rows > maxWorldSize*64 || cols > maxWorldSize*64 {
		return nil, ErrTruncatedMsg
	}
	raw := r.take(8 * int(rows) * int(cols))
	if r.err != nil {
		return nil, r.err
	}
	out := mat.NewDense(int(rows), int(cols))
	readFloats(out.Data(), raw)
	return out, nil
}

// Data-plane messages. An up or down payload carries one chunk of one
// collective (the frame's Seq). Sum collectives are cut into chunks of
// ChunkElems floats, which bounds peak buffering and lets partial-sum folds
// overlap receives without changing the canonical per-element bracketing;
// concat collectives travel as a single chunk.

// treeHelloMsg binds a freshly dialed data connection to (gen, member).
// It is idempotent and resent on every retransmit tick, so a dropped
// hello only delays binding.
type treeHelloMsg struct {
	Gen      uint32
	MemberID uint32
}

func (m treeHelloMsg) encode() []byte {
	b := make([]byte, 0, 8)
	b = binary.LittleEndian.AppendUint32(b, m.Gen)
	return binary.LittleEndian.AppendUint32(b, m.MemberID)
}

func decodeTreeHello(p []byte) (treeHelloMsg, error) {
	r := &byteReader{b: p}
	m := treeHelloMsg{Gen: r.u32(), MemberID: r.u32()}
	return m, r.err
}

// chunkHdr leads every up and down payload.
type chunkHdr struct {
	Gen   uint32
	Op    byte
	Chunk uint32
	Elems uint32 // whole-payload length in float64 elements (0 for concat ops)
}

const chunkHdrLen = 13

func (h chunkHdr) appendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, h.Gen)
	b = append(b, h.Op)
	b = binary.LittleEndian.AppendUint32(b, h.Chunk)
	return binary.LittleEndian.AppendUint32(b, h.Elems)
}

func (r *byteReader) chunkHdr() chunkHdr {
	return chunkHdr{Gen: r.u32(), Op: r.u8(), Chunk: r.u32(), Elems: r.u32()}
}

// appendSegData writes a segment's count-prefixed payload: floats for a
// sum op, bytes otherwise.
func appendSegData(b []byte, sum bool, s seg) []byte {
	if sum {
		return appendFloats(binary.LittleEndian.AppendUint32(b, uint32(len(s.f))), s.f)
	}
	return appendBytes(b, s.b)
}

func segDataLen(sum bool, s seg) int {
	if sum {
		return 4 + 8*len(s.f)
	}
	return 4 + len(s.b)
}

// encodeUp serializes a chunk's segments, flowing child → parent, into a
// pooled buffer (the engine keeps up frames for retransmission; see
// wireBuf for who returns it).
func encodeUp(h chunkHdr, segs []seg) []byte {
	sum := isSum(h.Op)
	need := chunkHdrLen + 4
	for _, s := range segs {
		need += 8 + segDataLen(sum, s)
	}
	b := h.appendTo(mat.GetBytes(need)[:0])
	b = binary.LittleEndian.AppendUint32(b, uint32(len(segs)))
	for _, s := range segs {
		b = binary.LittleEndian.AppendUint32(b, uint32(s.lo))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.hi))
		b = appendSegData(b, sum, s)
	}
	return b
}

// decodeUp parses an up payload. Partial sums land in pooled float
// buffers the caller owns (seg.free); byte segments alias p. On error
// every already-decoded segment has been released.
func decodeUp(p []byte) (chunkHdr, []seg, error) {
	r := &byteReader{b: p}
	h := r.chunkHdr()
	n := r.u32()
	if r.err == nil && n > maxWorldSize {
		r.err = ErrTruncatedMsg
	}
	var segs []seg
	for i := uint32(0); i < n && r.err == nil; i++ {
		s := seg{lo: int(r.u32()), hi: int(r.u32())}
		if isSum(h.Op) {
			if raw := r.counted(8); r.err == nil {
				s.f, s.own = mat.GetFloats(len(raw)/8), true
				readFloats(s.f, raw)
			}
		} else {
			s.b = r.bytes()
		}
		segs = append(segs, s)
	}
	if r.err != nil {
		for _, s := range segs {
			s.free()
		}
		return h, nil, r.err
	}
	return h, segs, nil
}

// encodeDown serializes one chunk of a finished collective, flowing
// root → leaves, into a plain (unpooled) buffer: down payloads are shared
// with the local ranks reading the result, so their lifetime is not the
// engine's to end and they must not hold pool capacity.
func encodeDown(h chunkHdr, s seg) []byte {
	sum := isSum(h.Op)
	return appendSegData(h.appendTo(make([]byte, 0, chunkHdrLen+segDataLen(sum, s))), sum, s)
}

// decodeDown parses a down payload into its header and data section (the
// chunk's float64 bits for a sum op, the rank-ordered byte strings
// otherwise); data aliases p.
func decodeDown(p []byte) (chunkHdr, []byte, error) {
	r := &byteReader{b: p}
	h := r.chunkHdr()
	width := 1
	if isSum(h.Op) {
		width = 8
	}
	data := r.counted(width)
	return h, data, r.err
}

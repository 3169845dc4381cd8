package distnet

import (
	"encoding/binary"
	"fmt"

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

// counted reads a u32 count followed by count items of width bytes each,
// under the wire's frame bound.
func counted(r *mat.Reader, width int) []byte {
	n := r.U32()
	if n > MaxFramePayload {
		r.Fail(mat.ErrTruncated)
	}
	return r.Take(int(n) * width)
}

// The control messages. Each lists its fields once, in wire order; that
// list is both its encoder and its decoder (mat.Fields' kinds: fixed-width
// integers as is, a bool as one byte, a string or []uint32 as a u32 count
// and its elements).
type message[T any] interface {
	*T
	fields() mat.Fields
}

// encode writes m's fields.
func encode(m interface{ fields() mat.Fields }) []byte { return m.fields().Append(nil) }

// decode reads a T from p, which must hold exactly its fields.
func decode[T any, P message[T]](p []byte) (T, error) {
	var m T
	err := P(&m).fields().Load(p)
	return m, err
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
	Self bool
	// DataPort is the member's tree-data listener port (0 = none). The
	// coordinator joins it with the host it observes on the control
	// connection to form the member's advertised tree-data address.
	DataPort uint32
}

func (m *joinMsg) fields() mat.Fields {
	return mat.Fields{&m.Gen, &m.MemberID, &m.NLocal, &m.WorldSize, &m.ConfigDigest, &m.Self, &m.DataPort}
}

// joinAckMsg acknowledges membership; rank assignment arrives with ftStart
// once every expected member has joined.
type joinAckMsg struct {
	MemberID uint32
	Gen      uint32
}

func (m *joinAckMsg) fields() mat.Fields { return mat.Fields{&m.MemberID, &m.Gen} }

// rejectMsg refuses a join with a machine-readable code.
type rejectMsg struct {
	Code   uint16
	Reason string
}

func (m *rejectMsg) fields() mat.Fields { return mat.Fields{&m.Code, &m.Reason} }

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

func (m *startMsg) fields() mat.Fields {
	return mat.Fields{&m.Gen, &m.WorldSize, &m.BaseRank, &m.ChunkElems, &m.TreeParent, &m.TreeChildren, &m.TreeDepth}
}

// peerDeadMsg announces a declared member death; surviving members poison
// their local ranks and re-rendezvous at Gen+1.
type peerDeadMsg struct {
	Gen        uint32
	DeadMember uint32
	Reason     string
}

func (m *peerDeadMsg) fields() mat.Fields { return mat.Fields{&m.Gen, &m.DeadMember, &m.Reason} }

// maxWorldSize bounds decoded rank counts so corrupted frames cannot drive
// huge allocations.
const maxWorldSize = 1 << 16

// decodeMat reads a matrix payload (mat.AppendMat's encoding); a 0×0
// matrix travels like any other.
func decodeMat(p []byte) (*mat.Dense, error) {
	r := mat.NewReader(p)
	m := r.Mat()
	if m == nil && r.Err() == nil {
		m = new(mat.Dense)
	}
	return m, r.Err()
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

func (m *treeHelloMsg) fields() mat.Fields { return mat.Fields{&m.Gen, &m.MemberID} }

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

func readChunkHdr(r *mat.Reader) chunkHdr {
	return chunkHdr{Gen: r.U32(), Op: r.U8(), Chunk: r.U32(), Elems: r.U32()}
}

// appendSegData writes the count-prefixed payload of a run of adjacent
// segments: a partial sum's floats (a run of one), or the byte strings
// concatenated.
func appendSegData(b []byte, sum bool, run []seg) []byte {
	if sum {
		return mat.AppendFloats(binary.LittleEndian.AppendUint32(b, uint32(len(run[0].f))), run[0].f)
	}
	n := 0
	for _, s := range run {
		n += len(s.b) + len(s.raw)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for _, s := range run {
		b = append(append(b, s.b...), s.raw...)
	}
	return b
}

// runEnd returns where the run of segments starting at i ends: byte
// strings of adjacent ranges travel as one segment, a partial sum alone.
func runEnd(sum bool, segs []seg, i int) int {
	j := i + 1
	for !sum && j < len(segs) && segs[j].lo == segs[j-1].hi {
		j++
	}
	return j
}

// encodeUp serializes a chunk's segments, flowing child → parent, into the
// pooled payload of frame ws (the engine keeps up frames for
// retransmission; see tree.go for who returns it). Adjacent byte strings
// go as one segment, as if they had been merged.
func encodeUp(ws uint64, h chunkHdr, segs []seg) Frame {
	sum := isSum(h.Op)
	need, runs := chunkHdrLen+4, 0
	for i := 0; i < len(segs); i = runEnd(sum, segs, i) {
		need, runs = need+12, runs+1
	}
	for _, s := range segs {
		need += 8*len(s.f) + len(s.b) + len(s.raw)
	}
	b := h.appendTo(mat.GetBytes(need)[:0])
	b = binary.LittleEndian.AppendUint32(b, uint32(runs))
	for i, j := 0, 0; i < len(segs); i = j {
		j = runEnd(sum, segs, i)
		b = binary.LittleEndian.AppendUint32(b, uint32(segs[i].lo))
		b = binary.LittleEndian.AppendUint32(b, uint32(segs[j-1].hi))
		b = appendSegData(b, sum, segs[i:j])
	}
	return Frame{Type: ftTreeUp, Seq: ws, Payload: b, buf: &wireBuf{b: b}}
}

// decodeUp parses an up payload. Partial sums land in pooled float
// buffers the caller owns (seg.free); byte segments alias p. On error
// every already-decoded segment has been released.
func decodeUp(p []byte) (chunkHdr, []seg, error) {
	r := mat.NewReader(p)
	h := readChunkHdr(r)
	n := r.U32()
	if n > maxWorldSize {
		r.Fail(mat.ErrTruncated)
	}
	var segs []seg
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		s := seg{lo: int(r.U32()), hi: int(r.U32())}
		if isSum(h.Op) {
			if raw := counted(r, 8); r.Err() == nil {
				s.f, s.own = mat.GetFloats(len(raw)/8), true
				mat.ReadFloats(s.f, raw)
			}
		} else {
			s.b = counted(r, 1)
		}
		segs = append(segs, s)
	}
	if r.Err() != nil {
		for _, s := range segs {
			s.free()
		}
		return h, nil, r.Err()
	}
	return h, segs, nil
}

// encodeDown serializes one chunk of a finished collective, flowing
// root → leaves, from the segments covering every rank into the pooled
// payload of frame ws (see tree.go for who returns it).
func encodeDown(ws uint64, h chunkHdr, segs []seg) Frame {
	need := chunkHdrLen + 4
	for _, s := range segs {
		need += 8*len(s.f) + len(s.b) + len(s.raw)
	}
	b := appendSegData(h.appendTo(mat.GetBytes(need)[:0]), isSum(h.Op), segs)
	return Frame{Type: ftTreeDown, Seq: ws, Payload: b, buf: &wireBuf{b: b}}
}

// rankStrings returns the ranks' byte strings held by the segments of a
// byte gather, in rank order, as views: a local rank's is its raw bytes
// (its prefix alone is in b), a received run's lie in b.
func rankStrings(segs []seg) [][]byte {
	var out [][]byte
	for _, s := range segs {
		if s.frame.buf == nil {
			out = append(out, s.raw)
			continue
		}
		for r := mat.NewReader(s.b); r.Len() > 0 && r.Err() == nil; {
			out = append(out, counted(r, 1))
		}
	}
	return out
}

// decodeDown parses a down payload into its header and data section (the
// chunk's float64 bits for a sum op, the rank-ordered byte strings
// otherwise); data aliases p.
func decodeDown(p []byte) (chunkHdr, []byte, error) {
	r := mat.NewReader(p)
	h := readChunkHdr(r)
	width := 1
	if isSum(h.Op) {
		width = 8
	}
	data := counted(r, width)
	return h, data, r.Err()
}

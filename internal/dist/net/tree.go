package distnet

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/telemetry"
)

// This file is the transport's data plane: every collective of every
// topology runs through it. Control (rendezvous, heartbeats, failure
// detection, the snapshot blob) stays on each process's link to the
// coordinator; collective payloads ride member↔member TCP connections
// arranged as the reduction tree the coordinator computed for the
// generation — a depth-1 star for -net-topology=hub, the canonical binary
// tree for tree. The engine does not know which.
//
// Protocol: each member dials its parent's data listener and binds the
// connection with ftTreeHello (gen, memberID). Contributions flow upward
// as ftTreeUp frames — one per chunk, carrying the sender subtree's
// merged segments — and the finished collective flows back down as
// ftTreeDown frames, one per chunk. There are no acks: a child re-sends
// its hello plus every pending up frame each retransmit tick until the
// result arrives; parents drop duplicates while a collective is open and
// answer duplicates for the last completed one by re-sending that chunk's
// down frame. That masks socket faults (drop, dup, reorder, delay) and
// reconnects alike. One completed collective is enough: each rank runs one
// collective at a time (Proc.collective enforces it), so once s+1
// completes no child can still need s, and an up frame below the last
// completed one is a late duplicate.
//
// A segment is what a contiguous rank range [lo, hi) contributes to one
// chunk. For the sum ops it is a partial sum, and two adjacent segments
// merge (left + right, elementwise) only when dist.CanMergeSegments allows
// it, i.e. when they are exactly the two children of a canonical reduction
// node. Greedy merging is confluent — every canonical node has a unique
// sibling — so the bits are independent of arrival order, of chunking, of
// the tree's shape and of how ranks are grouped into processes; they equal
// the in-process cluster's canonical fold exactly. For the concat ops
// (all-gather, byte-gather, broadcast, barrier) a segment is the ranks'
// length-prefixed byte strings in rank order; segments are never merged in
// memory, and the up and down encoders write each run of adjacent ones as
// the one segment their concatenation is, so a byte is copied once per
// frame. Either way the root ends up holding [0, world), which is the
// result.
//
// Every buffer the data plane fills is pooled. A segment that owns its
// buffer (seg.own) is freed by whoever removes it from a chunk: the merge
// that consumes it, the encode that ships it, or the collective's release.
// The local deposit's full-length buffers belong to treeColl.local, and
// the per-chunk segments cut from them are views that own nothing. A frame
// — received, or an encoded up or down payload — is a counted wireBuf
// whose holders are each write in flight, a frame the fault injector holds
// back, a byte segment cut from it, the retransmit set of up frames and
// the last result's down frames. The ownership rule: a delivered result is
// valid until the rank's next collective, and a buffer returns to the pool
// when the next collective completes and no write holds it.

// seg is one contiguous rank range's contribution to one chunk: f for the
// sum ops, b for the concat ops.
type seg struct {
	lo, hi int
	f      []float64
	b, raw []byte // raw (the caller's, read only) continues b's bytes
	own    bool   // f/b came from the mat pools and are this segment's to return
	frame  Frame  // the received frame b lies in; the segment holds it
}

func (s seg) free() {
	if s.own {
		mat.PutFloats(s.f)
		mat.PutBytes(s.b)
	}
	s.frame.release()
}

// view returns the non-owning part of s that belongs to the chunk covering
// float elements [off, off+n); concat segments are never cut.
func (s seg) view(off, n int) seg {
	v := seg{lo: s.lo, hi: s.hi, b: s.b, raw: s.raw}
	if s.f != nil {
		v.f = s.f[off : off+n : off+n]
	}
	return v
}

// insertSeg adds s to segs (kept sorted by lo) and merges partial sums as
// far as the canonical rule allows; byte strings are never merged, the
// encoders concatenate adjacent ones as they write them. The left
// operand's buffer accumulates a sum.
func insertSeg(world int, sum bool, segs []seg, s seg) []seg {
	pos := sort.Search(len(segs), func(i int) bool { return segs[i].lo > s.lo })
	segs = append(segs, seg{})
	copy(segs[pos+1:], segs[pos:])
	segs[pos] = s
	for i := 0; sum && i+1 < len(segs); {
		a, b := segs[i], segs[i+1]
		if a.hi != b.lo || !dist.CanMergeSegments(world, a.lo, a.hi, b.hi) {
			i++
			continue
		}
		for j := range a.f {
			a.f[j] += b.f[j]
		}
		b.free()
		segs[i] = seg{lo: a.lo, hi: b.hi, f: a.f, own: a.own}
		segs = append(segs[:i+1], segs[i+2:]...)
		if i > 0 {
			i-- // the merged node may now be its left neighbour's sibling
		}
	}
	return segs
}

// treeChunk accumulates one chunk of one collective.
type treeChunk struct {
	segs []seg           // sorted by lo, merged as far as the op allows
	from map[uint32]bool // children whose contribution arrived
	sent bool            // up frame built (or, at the root, down built)
}

// treeColl is one in-flight collective.
type treeColl struct {
	op        byte
	elems     int
	started   time.Time
	haveLocal bool
	local     []seg // the local deposit's full-length segments; chunks hold views
	chunks    []treeChunk

	// down holds the per-chunk ftTreeDown frames (forwarded to children and
	// kept for retransmit service), data their data sections, the result
	// for the local ranks; a byte gather's root keeps the segments instead.
	down  []Frame
	data  [][]byte
	keep  []seg
	downN int

	// up is this member's pending frames to its parent, re-sent every tick
	// until the collective is delivered.
	up []Frame
}

// release returns every pooled buffer the collective still holds.
func (tc *treeColl) release() {
	for i := range tc.chunks {
		for _, s := range tc.chunks[i].segs {
			s.free()
		}
		tc.chunks[i].segs = nil
	}
	for _, s := range tc.local {
		s.free()
	}
	tc.local = nil
	for _, f := range tc.up {
		f.release()
	}
	for _, f := range tc.down {
		f.release()
	}
	for _, s := range tc.keep {
		s.free()
	}
	tc.up, tc.down, tc.keep = nil, nil, nil
}

// treeEndpoint derives deterministic fault-injection endpoint ids for
// data-plane writers, disjoint from the control link's id*2 / id*2+1 space.
func treeEndpoint(member uint32, towardChild bool) uint64 {
	e := uint64(0x10000) + uint64(member)*2
	if towardChild {
		e++
	}
	return e
}

// outFrame is a write staged under the engine lock and performed outside
// it (TCP writes may block on backpressure); f holds the write's reference
// to a pooled payload.
type outFrame struct {
	fw frameWriter
	f  Frame
}

// maxTreeChunks bounds a collective's chunk count so a corrupted element
// count cannot drive a huge allocation.
const maxTreeChunks = 1 << 20

// treeEngine owns one process's data listener, its parent and child
// connections, and every in-flight collective. It is created once per
// Proc and re-installed with fresh topology every generation.
type treeEngine struct {
	p    *Proc
	ln   net.Listener
	port int

	mu     sync.Mutex
	closed bool

	gen        uint32
	world      int
	base       int
	chunkElems int
	parentAddr string // "" at the root
	children   map[uint32]bool

	parentConn net.Conn
	parentFW   frameWriter

	childConns map[uint32]net.Conn
	childFWs   map[uint32]frameWriter

	colls map[uint64]*treeColl
	// done is the generation's last completed wire sequence and last that
	// collective, held for its local ranks and for children that missed it.
	done uint64
	last *treeColl
	stop chan struct{}
}

func newTreeEngine(p *Proc, ln net.Listener) *treeEngine {
	t := &treeEngine{
		p: p, ln: ln, port: ln.Addr().(*net.TCPAddr).Port,
		children:   map[uint32]bool{},
		childConns: map[uint32]net.Conn{},
		childFWs:   map[uint32]frameWriter{},
		colls:      map[uint64]*treeColl{},
		stop:       make(chan struct{}),
	}
	go t.acceptLoop()
	go t.tickLoop()
	return t
}

// dropConnsLocked (mu held) forgets every connection and open collective
// and returns the connections for the caller to close outside the lock.
func (t *treeEngine) dropConnsLocked() []net.Conn {
	for _, tc := range t.colls {
		tc.release()
	}
	t.colls = map[uint64]*treeColl{}
	var conns []net.Conn
	if t.parentConn != nil {
		conns = append(conns, t.parentConn)
	}
	for _, cn := range t.childConns {
		conns = append(conns, cn)
	}
	t.parentConn, t.parentFW = nil, nil
	t.childConns = map[uint32]net.Conn{}
	t.childFWs = map[uint32]frameWriter{}
	return conns
}

// install points the engine at a new generation's topology, tearing down
// the previous generation's connections and in-flight state.
func (t *treeEngine) install(sm startMsg) {
	t.mu.Lock()
	old := t.dropConnsLocked()
	// The last result goes to the GC: a failure may leave a rank reading it.
	t.done, t.last = 0, nil
	t.gen = sm.Gen
	t.world = int(sm.WorldSize)
	t.base = int(sm.BaseRank)
	t.chunkElems = int(sm.ChunkElems)
	t.parentAddr = sm.TreeParent
	t.children = make(map[uint32]bool, len(sm.TreeChildren))
	for _, id := range sm.TreeChildren {
		t.children[id] = true
	}
	t.mu.Unlock()

	for _, cn := range old {
		cn.Close()
	}
	if sm.TreeParent != "" {
		go t.dialParent(sm.Gen, sm.TreeParent)
	}
}

func (t *treeEngine) close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	conns := t.dropConnsLocked()
	t.mu.Unlock()

	close(t.stop)
	t.ln.Close()
	for _, cn := range conns {
		cn.Close()
	}
}

// stale reports whether work for generation gen is obsolete.
func (t *treeEngine) stale(gen uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed || t.gen != gen
}

// writeAll performs staged writes and drops the reference each held.
func (t *treeEngine) writeAll(frames []outFrame) {
	for _, of := range frames {
		if of.fw != nil && of.fw.writeFrame(of.f) == nil {
			t.p.countBytes("tx", len(of.f.Payload))
		}
		of.f.release()
	}
}

// acceptLoop serves child data connections.
func (t *treeEngine) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go t.serveChild(conn)
	}
}

// serveChild owns one inbound data connection. The first valid hello for
// the current generation binds it to a child member; afterwards up
// frames fold into the engine. Frames for the wrong generation are
// dropped — the child's per-tick hello rebinds once both sides agree.
func (t *treeEngine) serveChild(conn net.Conn) {
	var bound uint32
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			t.mu.Lock()
			if bound != 0 && t.childConns[bound] == conn {
				delete(t.childConns, bound)
				delete(t.childFWs, bound)
			}
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.p.countBytes("rx", len(f.Payload))
		switch f.Type {
		case ftTreeHello:
			hm, err := decode[treeHelloMsg](f.Payload)
			t.mu.Lock()
			// Only a new connection rebinds: a fresh writer per hello (one a
			// tick) would restart the fault plan's draws.
			if err == nil && !t.closed && hm.Gen == t.gen && t.children[hm.MemberID] && t.childConns[hm.MemberID] != conn {
				if old := t.childConns[hm.MemberID]; old != nil {
					old.Close()
				}
				bound = hm.MemberID
				t.childConns[bound] = conn
				t.childFWs[bound] = wrapWriter(conn, t.p.cfg.Faults, treeEndpoint(bound, true))
			}
			t.mu.Unlock()
		case ftTreeUp:
			if h, segs, err := decodeUp(f.Payload); err == nil {
				for i := 0; !isSum(h.Op) && i < len(segs); i++ {
					segs[i].frame = f.retain() // byte strings alias the frame
				}
				t.handleUp(bound, f.Seq, h, segs)
			}
		}
		f.release()
	}
}

// dialParent establishes (or re-establishes) the upstream data
// connection for generation gen, with backoff bounded by RendezvousTimeout.
// Exhausting the budget withdraws the process: an unreachable parent
// means this subtree's contributions can never ascend.
func (t *treeEngine) dialParent(gen uint32, addr string) {
	deadline := time.Now().Add(t.p.cfg.RendezvousTimeout)
	backoff := dialBackoffBase
	for {
		if t.stale(gen) {
			return
		}
		conn, err := net.DialTimeout("tcp", addr, dialBackoffMax)
		if err == nil {
			t.mu.Lock()
			if t.closed || t.gen != gen {
				t.mu.Unlock()
				conn.Close()
				return
			}
			if t.parentConn != nil {
				t.parentConn.Close()
			}
			t.parentConn = conn
			t.parentFW = wrapWriter(conn, t.p.cfg.Faults, treeEndpoint(t.p.link.id(), false))
			frames := t.pendingUpLocked()
			t.mu.Unlock()
			t.writeAll(frames)
			go t.readParent(gen, addr, conn)
			return
		}
		if time.Now().After(deadline) {
			if !t.stale(gen) {
				t.p.abortLocal(fmt.Errorf("distnet: tree parent %s unreachable: %v", addr, err))
			}
			return
		}
		time.Sleep(backoff)
		backoff *= 2
		backoff = min(backoff, dialBackoffMax)
	}
}

// pendingUpLocked stages the hello plus every pending up frame (mu held) —
// the per-tick retransmit batch. The hello leads so an unbound parent
// binds before folding.
func (t *treeEngine) pendingUpLocked() []outFrame {
	frames := []outFrame{{fw: t.parentFW, f: Frame{Type: ftTreeHello,
		Payload: encode(&treeHelloMsg{Gen: t.gen, MemberID: t.p.link.id()})}}}
	for _, tc := range t.colls {
		for _, f := range tc.up {
			frames = append(frames, outFrame{t.parentFW, f.retain()})
		}
	}
	return frames
}

// readParent consumes down frames until the connection breaks, then
// redials (the parent may have restarted its listener backlog, or a
// fault plan partition may have reset the conn).
func (t *treeEngine) readParent(gen uint32, addr string, conn net.Conn) {
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			t.mu.Lock()
			if t.parentConn == conn {
				t.parentConn, t.parentFW = nil, nil
			}
			t.mu.Unlock()
			conn.Close()
			if t.stale(gen) || t.p.Err() != nil {
				return
			}
			go t.dialParent(gen, addr)
			return
		}
		t.p.countBytes("rx", len(f.Payload))
		if f.Type == ftTreeDown {
			t.handleDown(f)
		} else {
			f.release()
		}
	}
}

// tickLoop re-sends the hello and pending up frames every retransmit
// period — the engine's only timer, and its whole reliability story.
func (t *treeEngine) tickLoop() {
	tick := time.NewTicker(t.p.cfg.RetransmitEvery)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		t.mu.Lock()
		var frames []outFrame
		if !t.closed && t.parentFW != nil {
			frames = t.pendingUpLocked()
		}
		t.mu.Unlock()
		if len(frames) > 1 {
			telemetry.IncCounter(telemetry.MetricNetRetries, 1,
				telemetry.Label{Key: "kind", Value: "retransmit"})
		}
		t.writeAll(frames)
	}
}

// chunkLen returns chunk i's element count for a payload of elems.
func chunkLen(elems, chunkElems, i int) int {
	lo := i * chunkElems
	hi := lo + chunkElems
	if hi > elems {
		hi = elems
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// ensureLocked finds or creates the collective's state (mu held). It
// returns nil when op or length disagree with what is already open under
// this sequence number: some rank issued a different collective — the
// moral equivalent of the in-process cluster's deadlock — and the caller
// fails loudly.
func (t *treeEngine) ensureLocked(ws uint64, op byte, elems int) *treeColl {
	if tc := t.colls[ws]; tc != nil {
		if tc.op != op || tc.elems != elems {
			return nil
		}
		return tc
	}
	nChunks := 1
	if elems > t.chunkElems {
		nChunks = (elems + t.chunkElems - 1) / t.chunkElems
	}
	if nChunks > maxTreeChunks {
		return nil
	}
	tc := &treeColl{
		op: op, elems: elems, started: time.Now(),
		chunks: make([]treeChunk, nChunks),
		down:   make([]Frame, nChunks),
		data:   make([][]byte, nChunks),
	}
	t.colls[ws] = tc
	return tc
}

// part is one local rank's contribution to a collective: its values for a
// sum op, its length-prefixed bytes otherwise. Both are pooled and belong
// to the engine once submitted; raw, a byte-gather's payload after its
// length prefix in b, is the caller's and only read.
type part struct {
	f      []float64
	b, raw []byte
}

// submit deposits this process's local contributions (ranks
// base..base+len(parts)) into the tree. Must be called without p.mu
// held; it may complete the collective synchronously (the single-member
// tree) and deliver through p.onResult.
func (t *treeEngine) submit(ws uint64, op byte, parts []part) {
	sum := isSum(op)
	elems := len(parts[0].f)
	for _, pt := range parts {
		if len(pt.f) != elems {
			panic(fmt.Sprintf("distnet: local ranks disagree on %s length: %d vs %d", opName(op), len(pt.f), elems))
		}
	}
	t.mu.Lock()
	local := make([]seg, 0, len(parts))
	for i, pt := range parts {
		local = insertSeg(t.world, sum, local, seg{lo: t.base + i, hi: t.base + i + 1, f: pt.f, b: pt.b, raw: pt.raw, own: true})
	}
	var tc *treeColl
	if !t.closed {
		tc = t.ensureLocked(ws, op, elems)
	}
	if tc == nil || tc.haveLocal {
		disagree := tc == nil && !t.closed
		t.mu.Unlock()
		for _, s := range local {
			s.free()
		}
		if disagree {
			t.p.abortLocal(fmt.Errorf("distnet: collective sequence mismatch at %d: local ranks issued %s of %d elements",
				ws, opName(op), elems))
		}
		return
	}
	tc.haveLocal, tc.local = true, local
	// Cut the full-length segments into per-chunk views and merge them with
	// anything the children delivered early.
	var out []outFrame
	for i := range tc.chunks {
		ch := &tc.chunks[i]
		for _, s := range local {
			ch.segs = insertSeg(t.world, sum, ch.segs, s.view(i*t.chunkElems, chunkLen(elems, t.chunkElems, i)))
		}
		out = append(out, t.finishChunkLocked(ws, tc, i)...)
	}
	res := t.deliverLocked(ws, tc)
	t.mu.Unlock()

	t.writeAll(out)
	if res != nil {
		t.p.onResult(ws, res)
	}
}

// handleUp folds one child's chunk contribution; ownership of the
// segments' buffers transfers here.
func (t *treeEngine) handleUp(child uint32, ws uint64, h chunkHdr, segs []seg) {
	drop := func() {
		t.mu.Unlock()
		for _, s := range segs {
			s.free()
		}
	}
	t.mu.Lock()
	if t.closed || child == 0 || h.Gen != t.gen { // child 0: not yet bound
		drop()
		return
	}
	// Completed collective: the last one's child missed (some of) the
	// result, so re-serve the requested chunk's down frame; anything older
	// is a late duplicate no child can still need.
	if ws <= t.done {
		var out []outFrame
		if ws == t.done && t.last != nil && int(h.Chunk) < len(t.last.down) {
			out = []outFrame{{t.childFWs[child], t.last.down[h.Chunk].retain()}}
		}
		drop()
		t.writeAll(out)
		return
	}
	tc := t.ensureLocked(ws, h.Op, int(h.Elems))
	if tc == nil {
		drop()
		t.p.abortLocal(fmt.Errorf("distnet: collective sequence mismatch at %d: member %d sent %s of %d elements",
			ws, child, opName(h.Op), h.Elems))
		return
	}
	if int(h.Chunk) >= len(tc.chunks) {
		drop()
		return
	}
	ch := &tc.chunks[h.Chunk]
	if ch.from[child] || ch.sent {
		drop()
		return
	}
	sum := isSum(h.Op)
	cl := chunkLen(tc.elems, t.chunkElems, int(h.Chunk))
	for _, s := range segs {
		if s.lo >= s.hi || s.hi > t.world || (sum && len(s.f) != cl) {
			drop()
			return
		}
	}
	if ch.from == nil {
		ch.from = map[uint32]bool{}
	}
	ch.from[child] = true
	for _, s := range segs {
		ch.segs = insertSeg(t.world, sum, ch.segs, s)
	}
	out := t.finishChunkLocked(ws, tc, int(h.Chunk))
	res := t.deliverLocked(ws, tc)
	t.mu.Unlock()

	t.writeAll(out)
	if res != nil {
		t.p.onResult(ws, res)
	}
}

// finishChunkLocked advances a chunk whose inputs may now be complete
// (mu held): when the local deposit and every child have contributed, a
// non-root member emits the chunk's up frame; the root builds and fans
// out the chunk's down frame.
func (t *treeEngine) finishChunkLocked(ws uint64, tc *treeColl, i int) []outFrame {
	ch := &tc.chunks[i]
	if ch.sent || !tc.haveLocal || len(ch.from) != len(t.children) {
		return nil
	}
	h := chunkHdr{Gen: t.gen, Op: tc.op, Chunk: uint32(i), Elems: uint32(tc.elems)}
	var out []outFrame
	if t.parentAddr != "" {
		// Forward the merged segments upward and keep the frame for
		// retransmit; once encoded the segments are no longer needed.
		f := encodeUp(ws, h, ch.segs)
		tc.up = append(tc.up, f)
		if t.parentFW != nil {
			out = []outFrame{{t.parentFW, f.retain()}}
		}
	} else {
		// Root: the segments must cover [0, world) in order, a sum merged
		// to one; anything else is corruption, left for the watchdog.
		if runEnd(isSum(tc.op), ch.segs, 0) != len(ch.segs) || ch.segs[0].lo != 0 || ch.segs[len(ch.segs)-1].hi != t.world {
			return nil
		}
		if tc.op == opGatherBytes {
			// Rank 0 alone gets the bundles, as views of the segments it
			// keeps; the children get a down frame with no data.
			tc.keep, ch.segs = ch.segs, nil
		}
		out = t.recordDownLocked(tc, i, encodeDown(ws, h, ch.segs))
	}
	ch.sent = true
	for _, s := range ch.segs {
		s.free()
	}
	ch.segs = nil
	return out
}

// recordDownLocked (mu held) installs chunk i's down frame, taking over
// the caller's reference, and stages its forwarding to every bound child.
func (t *treeEngine) recordDownLocked(tc *treeColl, i int, f Frame) []outFrame {
	_, tc.data[i], _ = decodeDown(f.Payload)
	tc.down[i] = f
	tc.downN++
	out := make([]outFrame, 0, len(t.childFWs))
	for _, fw := range t.childFWs {
		out = append(out, outFrame{fw, f.retain()})
	}
	return out
}

// handleDown installs one chunk of the finished collective arriving from
// the parent: record it, forward it to the children, and deliver once
// every chunk is in. The frame is reused verbatim for forwarding and
// retransmit service; the caller's reference passes to the engine.
func (t *treeEngine) handleDown(f Frame) {
	h, data, err := decodeDown(f.Payload)
	t.mu.Lock()
	tc := t.colls[f.Seq]
	if err != nil || t.closed || h.Gen != t.gen || tc == nil || h.Op != tc.op ||
		int(h.Chunk) >= len(tc.chunks) || tc.down[h.Chunk].Payload != nil ||
		(isSum(h.Op) && len(data) != 8*chunkLen(tc.elems, t.chunkElems, int(h.Chunk))) {
		t.mu.Unlock()
		f.release()
		return
	}
	ws := f.Seq
	out := t.recordDownLocked(tc, int(h.Chunk), f)
	res := t.deliverLocked(ws, tc)
	t.mu.Unlock()

	t.writeAll(out)
	if res != nil {
		t.p.onResult(ws, res)
	}
}

// deliverLocked retires a completed collective (mu held) and returns its
// result, for delivery outside the lock, or nil while chunks are
// outstanding. It is kept, so a lagging child can still be served, until
// the next completes and releases it: by then every local rank has left
// its result behind.
func (t *treeEngine) deliverLocked(ws uint64, tc *treeColl) [][]byte {
	if !tc.haveLocal || tc.downN != len(tc.chunks) {
		return nil
	}
	if t.last != nil {
		t.last.release()
	}
	t.done, t.last = ws, tc
	delete(t.colls, ws)
	if tc.keep != nil {
		return rankStrings(tc.keep)
	}
	return tc.data
}

// waitingOn answers the coordinator's two questions about the collectives
// it no longer sees: which direct contributors — child member ids, plus
// this member's own id for the local deposit — does some collective that
// has been open for at least age still lack, and what is that collective.
// ok is false when this engine is not generation gen's root and so cannot
// know.
func (t *treeEngine) waitingOn(gen uint32, age time.Duration) (missing map[uint32]bool, op byte, ok bool) {
	self := t.p.link.id()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.gen != gen || t.parentAddr != "" {
		return nil, 0, false
	}
	missing = map[uint32]bool{}
	now := time.Now()
	for _, tc := range t.colls {
		if now.Sub(tc.started) < age {
			continue
		}
		op = tc.op
		if !tc.haveLocal {
			missing[self] = true
		}
		for i := range tc.chunks {
			for id := range t.children {
				if !tc.chunks[i].sent && !tc.chunks[i].from[id] {
					missing[id] = true
				}
			}
		}
	}
	return missing, op, true
}

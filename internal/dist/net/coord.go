package distnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/telemetry"
)

// coordPhase is the membership FSM state.
type coordPhase int

const (
	phaseGather  coordPhase = iota // generation 1: waiting for the world to fill
	phaseRunning                   // generation live
	phaseRejoin                    // a member died: waiting for survivors at gen+1
	phaseClosed
)

// member is the coordinator's view of one process.
type member struct {
	id        uint32
	self      bool
	nLocal    int
	baseRank  int
	conn      net.Conn
	fw        frameWriter
	connected bool
	lastSeen  time.Time
	// graceUntil extends life past a disconnect: the member may reattach
	// (reconnect with its memberID) before this deadline.
	graceUntil time.Time
	joinedGen  uint32
	dead       bool
	// dataPort is the member's advertised data listener port;
	// parent/treeChildren/treeDepth are its place in the generation's
	// reduction tree, recomputed by startGenLocked.
	dataPort     int
	parent       *member // nil at the root
	treeChildren []uint32
	treeDepth    int
	// left marks a clean departure that was not (yet) a failure: the member
	// disconnected when no open collective was waiting on its part of the
	// tree. It turns into a death lazily if a later collective is.
	left bool
}

// rootChild returns the member at depth ≤ 1 whose subtree holds m: the
// contributor the root engine sees m's ranks arrive through.
func rootChild(m *member) *member {
	for m.parent != nil && m.parent.parent != nil {
		m = m.parent
	}
	return m
}

// coordinator is the rank-0 control plane: rendezvous, heartbeats,
// generations, the snapshot blob, and death and rejoin. Every process —
// the coordinator's own included — talks to it through a client link over
// TCP. It carries no collective payloads; what it must know about open
// collectives (is one stuck, is a leaver still needed) it asks root, the
// data-plane engine of its own process, which is the tree's root whenever
// the coordinator's own member is alive.
type coordinator struct {
	cfg  *Config
	ln   net.Listener
	root *treeEngine

	mu      sync.Mutex
	phase   coordPhase
	gen     uint32
	world   int // current generation's world size
	members map[uint32]*member
	nextID  uint32
	digest  uint64
	haveDig bool

	// blob is the generation state blob (snapshot sync): the self member's
	// payload, distributed to every member that asks.
	blob     []byte
	haveBlob bool
	blobWant map[uint32]bool

	rejoinBy time.Time
	done     chan struct{}

	// count accounts wire traffic to the owning process (set by Start).
	count func(dir string, payloadLen int)
}

func newCoordinator(cfg *Config, ln net.Listener, count func(dir string, payloadLen int), root *treeEngine) *coordinator {
	c := &coordinator{
		cfg:     cfg,
		ln:      ln,
		root:    root,
		phase:   phaseGather,
		gen:     1,
		members: map[uint32]*member{},
		done:    make(chan struct{}),
		count:   count,
	}
	// The coordinator's own configuration is the authoritative digest;
	// otherwise the first joiner's would win the race to define "correct".
	if cfg.ConfigDigest != 0 {
		c.digest, c.haveDig = cfg.ConfigDigest, true
	}
	go c.acceptLoop()
	go c.scanLoop()
	return c
}

func (c *coordinator) close() {
	c.mu.Lock()
	if c.phase == phaseClosed {
		c.mu.Unlock()
		return
	}
	c.phase = phaseClosed
	close(c.done)
	conns := make([]net.Conn, 0, len(c.members))
	for _, m := range c.members {
		if m.connected {
			conns = append(conns, m.conn)
		}
	}
	c.mu.Unlock()
	c.ln.Close()
	for _, cn := range conns {
		cn.Close()
	}
}

func (c *coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go c.serveConn(conn)
	}
}

// serveConn owns one inbound connection: handshake frames bind it to a
// member; afterwards every frame is dispatched into the shared state. A
// read error (EOF on process death, reset on network failure) starts the
// member's reconnect grace window.
func (c *coordinator) serveConn(conn net.Conn) {
	var m *member
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			c.connLost(m, conn)
			return
		}
		c.count("rx", len(f.Payload))
		switch f.Type {
		case ftJoin:
			jm, err := decode[joinMsg](f.Payload)
			if err != nil {
				c.connLost(m, conn)
				conn.Close()
				return
			}
			m = c.handleJoin(m, conn, f.Seq, jm)
		case ftHeartbeat:
			if m != nil {
				c.touch(m)
				c.sendTo(m, Frame{Type: ftHeartbeatAck, Seq: f.Seq})
			}
		case ftBlob:
			if m != nil {
				c.touch(m)
				c.handleBlob(m, f.Payload)
			}
		case ftLeave:
			if m != nil {
				c.handleLeave(m)
			}
			return
		default:
			// Unknown control frame: ignore (forward compatibility).
		}
		f.release()
	}
}

func (c *coordinator) touch(m *member) {
	c.mu.Lock()
	m.lastSeen = time.Now()
	c.mu.Unlock()
}

// sendTo writes a frame to a member, tolerating failure: a broken conn is
// detected by its reader; the member's retransmit re-requests the frame.
func (c *coordinator) sendTo(m *member, f Frame) {
	c.mu.Lock()
	fw, ok := m.fw, m.connected
	c.mu.Unlock()
	if !ok || fw == nil {
		return
	}
	if err := fw.writeFrame(f); err == nil {
		c.count("tx", len(f.Payload))
	}
}

// handleJoin is the rendezvous entry: fresh joins create members,
// duplicate joins (retransmits) re-ack idempotently, and joins at gen+1
// during a rejoin round re-admit survivors. Returns the bound member.
func (c *coordinator) handleJoin(bound *member, conn net.Conn, msgID uint64, jm joinMsg) *member {
	c.mu.Lock()
	defer c.mu.Unlock()
	reject := func(code uint16, reason string) *member {
		f := Frame{Type: ftReject, Seq: msgID, Payload: encode(&rejectMsg{Code: code, Reason: reason})}
		WriteFrame(conn, f)
		return bound
	}

	if c.phase == phaseClosed {
		return reject(rejectGen, "coordinator shut down")
	}
	if c.haveDig && jm.ConfigDigest != c.digest {
		return reject(rejectConfig, fmt.Sprintf("config digest mismatch: coordinator %x, joiner %x", c.digest, jm.ConfigDigest))
	}
	if jm.WorldSize != 0 && int(jm.WorldSize) != c.cfg.WorldSize {
		return reject(rejectWorldSize, fmt.Sprintf("world size disagreement: coordinator %d, joiner %d", c.cfg.WorldSize, jm.WorldSize))
	}

	// Join on an already-bound conn: either a rejoin at gen+1 after a peer
	// death (same connection, next generation) or a plain retransmit whose
	// ack/start frame was lost. Both are idempotent.
	if bound != nil && (jm.MemberID == bound.id || jm.MemberID == 0) {
		if jm.Gen == c.gen+1 && c.phase == phaseRejoin {
			bound.joinedGen = jm.Gen
			bound.nLocal = int(jm.NLocal)
			c.ackLocked(bound)
			c.maybeStartRejoinLocked()
		} else {
			c.ackLocked(bound)
		}
		return bound
	}

	if jm.MemberID != 0 {
		// Reattach or rejoin of an existing member.
		m, ok := c.members[jm.MemberID]
		if !ok || m.dead {
			return reject(rejectGen, "unknown or dead member id")
		}
		m.conn = conn
		m.fw = wrapWriter(conn, c.cfg.Faults, uint64(m.id)*2+1)
		m.connected = true
		m.lastSeen = time.Now()
		m.graceUntil = time.Time{}
		if jm.DataPort != 0 {
			m.dataPort = int(jm.DataPort)
		}
		if jm.Gen == c.gen+1 && c.phase == phaseRejoin {
			m.joinedGen = jm.Gen
			m.nLocal = int(jm.NLocal)
			c.ackLocked(m)
			c.maybeStartRejoinLocked()
		} else {
			c.ackLocked(m)
		}
		return m
	}

	// Fresh member: only valid while gathering generation 1.
	if c.phase != phaseGather {
		return reject(rejectFull, "membership already complete")
	}
	if jm.DataPort == 0 {
		return reject(rejectConfig, "joiner advertised no data listener port")
	}
	if !c.haveDig {
		c.digest, c.haveDig = jm.ConfigDigest, true
	}
	total := int(jm.NLocal)
	for _, m := range c.members {
		total += m.nLocal
	}
	if total > c.cfg.WorldSize {
		return reject(rejectFull,
			fmt.Sprintf("world overflow: %d ranks joined + %d offered > world size %d",
				total-int(jm.NLocal), jm.NLocal, c.cfg.WorldSize))
	}
	c.nextID++
	m := &member{
		id:        c.nextID,
		self:      jm.Self,
		nLocal:    int(jm.NLocal),
		conn:      conn,
		fw:        wrapWriter(conn, c.cfg.Faults, uint64(c.nextID)*2+1),
		connected: true,
		lastSeen:  time.Now(),
		joinedGen: 1,
		dataPort:  int(jm.DataPort),
	}
	c.members[m.id] = m
	c.ackLocked(m)
	if total == c.cfg.WorldSize {
		c.startGenLocked()
	}
	return m
}

// ackLocked (mu held) acknowledges membership, re-sending the start frame
// when the member's generation is already live so dropped starts recover.
func (c *coordinator) ackLocked(m *member) {
	fw := m.fw
	ack := Frame{Type: ftJoinAck, Payload: encode(&joinAckMsg{MemberID: m.id, Gen: c.gen})}
	var start *Frame
	if c.phase == phaseRunning && m.joinedGen == c.gen {
		f := c.startFrameLocked(m)
		start = &f
	}
	go func() {
		fw.writeFrame(ack)
		if start != nil {
			fw.writeFrame(*start)
		}
	}()
}

// startGenLocked (mu held) begins a generation: ranks are assigned — the
// coordinator's own member first, then survivors ordered by their previous
// base rank (join order on generation 1) — and every member gets ftStart.
func (c *coordinator) startGenLocked() {
	live := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		if !m.dead {
			live = append(live, m)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].self != live[j].self {
			return live[i].self
		}
		if live[i].baseRank != live[j].baseRank {
			return live[i].baseRank < live[j].baseRank
		}
		return live[i].id < live[j].id
	})
	base := 0
	for _, m := range live {
		m.baseRank = base
		base += m.nLocal
	}
	c.world = base
	c.phase = phaseRunning
	c.blob, c.haveBlob = nil, false
	c.blobWant = map[uint32]bool{}
	c.shapeTreeLocked(live)
	for _, m := range live {
		f := c.startFrameLocked(m)
		fw := m.fw
		go fw.writeFrame(f)
	}
	telemetry.Instant("distnet_gen_start", 0,
		telemetry.Label{Key: "gen", Value: fmt.Sprint(c.gen)},
		telemetry.Label{Key: "world", Value: fmt.Sprint(c.world)})
}

// startFrameLocked (mu held) builds one member's generation-start frame,
// including its place in the reduction tree.
func (c *coordinator) startFrameLocked(m *member) Frame {
	sm := startMsg{Gen: c.gen, WorldSize: uint32(c.world), BaseRank: uint32(m.baseRank),
		ChunkElems: uint32(c.cfg.ChunkElems), TreeChildren: m.treeChildren, TreeDepth: uint32(m.treeDepth)}
	if m.parent != nil {
		sm.TreeParent = c.dataAddrLocked(m, m.parent)
	}
	return Frame{Type: ftStart, Payload: encode(&sm)}
}

// shapeTreeLocked (mu held) arranges live members (sorted, ranks assigned)
// into the generation's reduction tree, rooted at the first — the
// coordinator's own process while its member lives. This is the one place
// the configured topology is read. Hub makes every other member the
// root's child. Tree splits members at canonical rank boundaries
// (dist.ReduceSplit), so the set of ranks under any subtree is exactly one
// canonical node's range and, for P single-rank members, the root's
// per-collective ingress is ≤ ceil(log2 P) payloads instead of the hub's
// P-1. Either shape yields the same bits: segment merging is confluent.
func (c *coordinator) shapeTreeLocked(live []*member) {
	for _, m := range live {
		m.parent, m.treeChildren, m.treeDepth = nil, nil, 0
	}
	adopt := func(p, ch *member) {
		ch.parent, ch.treeDepth = p, p.treeDepth+1
		p.treeChildren = append(p.treeChildren, ch.id)
	}
	if c.cfg.Topology == TopologyHub {
		for i := 1; i < len(live); i++ {
			adopt(live[0], live[i])
		}
		return
	}
	var build func(a, b int)
	build = func(a, b int) {
		if b-a <= 1 {
			return
		}
		lo := live[a].baseRank
		hi := live[b-1].baseRank + live[b-1].nLocal
		mid := dist.ReduceSplit(lo, hi)
		// First member whose ranks start at/after the canonical boundary
		// roots the right subtree; everything between the node root and it
		// forms the left subtree. A straddling split (a member's ranks
		// crossing mid) leaves one child holding the whole remainder, whose
		// segments the parent merges as far as the canonical rule allows.
		split := b
		for i := a + 1; i < b; i++ {
			if live[i].baseRank >= mid {
				split = i
				break
			}
		}
		if split > a+1 {
			adopt(live[a], live[a+1])
			build(a+1, split)
		}
		if split < b {
			adopt(live[a], live[split])
			build(split, b)
		}
	}
	build(0, len(live))
}

// dataAddrLocked resolves parent pm's data address as recipient m should
// dial it: the coordinator knows pm's host from its control connection
// (or, when pm is the coordinator's own process, the host m reached the
// coordinator at), and pm's listener port from its join. An address that
// cannot be resolved comes back empty, which the member refuses to start
// on (Proc.applyStart).
func (c *coordinator) dataAddrLocked(m, pm *member) string {
	var base net.Addr
	if pm.self {
		if m.conn != nil {
			base = m.conn.LocalAddr()
		}
	} else if pm.conn != nil {
		base = pm.conn.RemoteAddr()
	}
	if base == nil {
		return ""
	}
	host, _, err := net.SplitHostPort(base.String())
	if err != nil {
		return ""
	}
	return net.JoinHostPort(host, strconv.Itoa(pm.dataPort))
}

// maybeStartRejoinLocked starts gen+1 once every live member has rejoined.
func (c *coordinator) maybeStartRejoinLocked() {
	for _, m := range c.members {
		if !m.dead && m.joinedGen != c.gen+1 {
			return
		}
	}
	c.gen++
	c.startGenLocked()
}

// connLost begins the reconnect grace window for a member whose connection
// broke. The member is only declared dead when the window expires without a
// reattach (scanLoop), except while gathering, where an unstarted member
// simply leaves.
func (c *coordinator) connLost(m *member, conn net.Conn) {
	conn.Close()
	if m == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.conn != conn {
		return // already reattached on a fresh conn
	}
	m.connected = false
	if c.phase == phaseGather {
		delete(c.members, m.id)
		return
	}
	grace := c.cfg.PeerDeadline
	m.graceUntil = time.Now().Add(grace)
}

// handleLeave removes a departing member. While a generation is running a
// departure is a death — survivors must learn the world shrank, or the next
// collective would wait on the leaver's ranks forever — unless it is the
// clean end of a run: no collective open at the root still waits for the
// leaver's part of the tree, so nothing the survivors are waiting on
// depends on it (the engines' down caches keep serving retransmits). Such
// a member is retired silently; scanLoop turns the retirement into a death
// if a later collective does need its ranks. During shutdown the survivors
// are leaving too, and redundant peer-dead frames land on closing links
// that ignore them.
func (c *coordinator) handleLeave(m *member) {
	c.mu.Lock()
	if c.phase != phaseRunning && c.phase != phaseRejoin {
		m.dead = true
		m.connected = false
		m.conn.Close()
		delete(c.members, m.id)
		c.mu.Unlock()
		return
	}
	if c.phase == phaseRunning {
		if waiting, _, ok := c.root.waitingOn(c.gen, 0); ok && !waiting[rootChild(m).id] {
			m.left = true
			m.connected = false
			m.conn.Close()
			m.graceUntil = time.Time{}
			c.mu.Unlock()
			return
		}
	}
	c.mu.Unlock()
	c.declareDead(m, "member left")
}

// scanLoop is the failure detector: it expires reconnect grace windows,
// heartbeat deadlines, rejoin windows, and (when configured) the
// stuck-collective watchdog.
func (c *coordinator) scanLoop() {
	every := c.cfg.HeartbeatEvery
	if every <= 0 {
		every = 250 * time.Millisecond
	}
	t := time.NewTicker(every / 2)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		now := time.Now()
		c.mu.Lock()
		var toKill []*member
		var reasons []string
		switch c.phase {
		case phaseRunning, phaseRejoin:
			for _, m := range c.members {
				if m.dead || m.left {
					continue
				}
				if !m.connected && now.After(m.graceUntil) {
					toKill = append(toKill, m)
					reasons = append(reasons, "connection lost, reconnect grace expired")
					continue
				}
				if m.connected && c.cfg.PeerDeadline > 0 && now.Sub(m.lastSeen) > c.cfg.PeerDeadline {
					toKill = append(toKill, m)
					reasons = append(reasons, "heartbeat deadline exceeded")
				}
			}
		}
		if c.phase == phaseRejoin && now.After(c.rejoinBy) {
			for _, m := range c.members {
				if !m.dead && m.joinedGen != c.gen+1 {
					toKill = append(toKill, m)
					reasons = append(reasons, "missed rejoin window")
				}
			}
		}
		if c.phase == phaseRunning {
			// A cleanly retired member whose part of the tree an open
			// collective now waits on can never deliver it: promote the
			// retirement to a death so the survivors shrink and resume.
			if waiting, _, ok := c.root.waitingOn(c.gen, 0); ok {
				for _, m := range c.members {
					if m.left && !m.dead && waiting[rootChild(m).id] {
						toKill = append(toKill, m)
						reasons = append(reasons, "member left before collective completed")
					}
				}
			}
			// Stuck-collective watchdog: converts a silently hung remote rank
			// into the same loud failure the in-process barrier watchdog
			// produces. One contributor per tick; its death ends the phase.
			if c.cfg.CollTimeout > 0 {
				waiting, op, _ := c.root.waitingOn(c.gen, c.cfg.CollTimeout)
				var stuck *member
				for id := range waiting {
					if m := c.members[id]; m != nil && !m.dead && (stuck == nil || id < stuck.id) {
						stuck = m
					}
				}
				if stuck != nil {
					telemetry.IncCounter(telemetry.MetricBarrierWatchdog, 1)
					toKill = append(toKill, stuck)
					reasons = append(reasons, fmt.Sprintf("collective %s stuck past watchdog", opName(op)))
				}
			}
		}
		c.mu.Unlock()
		for i, m := range toKill {
			c.declareDead(m, reasons[i])
		}
	}
}

// declareDead is the failure commit point: the member is removed from the
// world, every survivor is told (which poisons its ranks' open
// collectives), and the FSM moves to the rejoin round for gen+1.
func (c *coordinator) declareDead(m *member, reason string) {
	c.mu.Lock()
	if m.dead || c.phase == phaseClosed {
		c.mu.Unlock()
		return
	}
	m.dead = true
	if m.connected {
		m.conn.Close()
		m.connected = false
	}
	// Cleanly-retired members are gone too: converting them now keeps the
	// rejoin round from waiting on processes that already exited.
	for _, o := range c.members {
		if o.left && !o.dead {
			o.dead = true
		}
	}
	firstDeath := c.phase == phaseRunning
	if firstDeath {
		c.phase = phaseRejoin
		c.rejoinBy = time.Now().Add(2 * c.cfg.PeerDeadline)
	}
	msg := peerDeadMsg{Gen: c.gen, DeadMember: m.id, Reason: reason}
	var targets []frameWriter
	for _, o := range c.members {
		if !o.dead && o.connected {
			targets = append(targets, o.fw)
		}
	}
	c.mu.Unlock()

	telemetry.IncCounter(telemetry.MetricWorkerFailures, 1)
	telemetry.Instant("distnet_peer_dead", int(m.id),
		telemetry.Label{Key: "reason", Value: reason})
	f := Frame{Type: ftPeerDead, Payload: encode(&msg)}
	for _, fw := range targets {
		fw.writeFrame(f)
	}
	// A death during the rejoin round may have been the last straggler.
	c.mu.Lock()
	if c.phase == phaseRejoin {
		c.maybeStartRejoinLocked()
	}
	c.mu.Unlock()
}

// handleBlob serves the generation state blob: the self member's payload is
// authoritative and fanned out to every member that offered or asked.
func (c *coordinator) handleBlob(m *member, payload []byte) {
	r := mat.NewReader(payload)
	gen := r.U32()
	blob := r.Take(r.Len())
	c.mu.Lock()
	if c.phase != phaseRunning || gen != c.gen {
		c.mu.Unlock()
		return
	}
	if m.self && !c.haveBlob {
		c.blob = append([]byte(nil), blob...)
		c.haveBlob = true
	}
	c.blobWant[m.id] = true
	var targets []*member
	if c.haveBlob {
		for id := range c.blobWant {
			if o := c.members[id]; o != nil && !o.dead {
				targets = append(targets, o)
			}
		}
		c.blobWant = map[uint32]bool{}
	}
	res := make([]byte, 0, 4+len(c.blob))
	res = binary.LittleEndian.AppendUint32(res, c.gen)
	res = append(res, c.blob...)
	c.mu.Unlock()
	for _, o := range targets {
		c.sendTo(o, Frame{Type: ftBlob, Payload: res})
	}
}

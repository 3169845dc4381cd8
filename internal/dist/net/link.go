package distnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/mat"
	"repro/internal/telemetry"
)

// PeerDeathError is the typed failure a dead peer (or unreachable
// coordinator) surfaces as at the Proc level. Local ranks observe it as a
// dist.ErrClusterPoisoned panic — the same failure the in-process chaos
// layer produces — so elastic drivers recover identically over both
// transports.
type PeerDeathError struct {
	Gen    uint32
	Member uint32 // 0 when the coordinator itself is unreachable
	Reason string
}

// Error implements error.
func (e *PeerDeathError) Error() string {
	if e.Member == 0 {
		return fmt.Sprintf("distnet: coordinator unreachable at gen %d: %s", e.Gen, e.Reason)
	}
	return fmt.Sprintf("distnet: peer %d died at gen %d: %s", e.Member, e.Gen, e.Reason)
}

// ErrRejected is wrapped by rendezvous failures the coordinator refused
// deliberately (version/world-size/config disagreement).
var ErrRejected = errors.New("distnet: join rejected")

// link is one process's control connection to the coordinator: rendezvous,
// heartbeats, peer-death notices and the snapshot blob exchange. All
// delivery loss — injected socket faults or real network trouble — is
// absorbed here by retransmit and bounded reconnect.
type link struct {
	cfg  *Config
	addr string
	self bool

	onFailure func(err error)
	count     func(dir string, payloadLen int)

	mu       sync.Mutex
	cond     *sync.Cond
	conn     net.Conn
	fw       frameWriter
	memberID uint32
	lastRecv time.Time

	// Rendezvous state: rdvGen nonzero while a join round is in flight;
	// start holds the accepted generation's parameters.
	rdvGen   uint32
	rdvErr   error
	start    startMsg
	hasStart bool

	// blobReq/blobRes carry the generation state blob exchange; blobReq is
	// re-sent every retransmit tick until the agreed copy arrives.
	blobReq  *Frame
	blobGen  uint32
	blobRes  []byte
	hasBlob  bool
	hbSeq    uint64
	hbSentAt time.Time
	closed   bool
	failed   error
	dialRNG  *mat.RNG
}

func newLink(cfg *Config, addr string, self bool, onFailure func(error)) *link {
	l := &link{
		cfg: cfg, addr: addr, self: self,
		onFailure: onFailure,
		count:     func(string, int) {},
		dialRNG:   mat.NewRNG(cfg.Seed + 0xA5A5),
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// connect dials the coordinator with exponential backoff plus jitter,
// bounded by RendezvousTimeout. The coordinator may simply not be up yet (two
// terminals started by hand), so patience here is rendezvous UX, not just
// fault recovery.
func (l *link) connect() error {
	deadline := time.Now().Add(l.cfg.RendezvousTimeout)
	backoff := dialBackoffBase
	for attempt := 0; ; attempt++ {
		conn, err := net.DialTimeout("tcp", l.addr, dialBackoffMax)
		if err == nil {
			l.mu.Lock()
			l.conn = conn
			l.fw = wrapWriter(conn, l.cfg.Faults, uint64(l.memberID)*2)
			l.lastRecv = time.Now()
			l.mu.Unlock()
			return nil
		}
		if attempt > 0 {
			telemetry.IncCounter(telemetry.MetricNetRetries, 1,
				telemetry.Label{Key: "kind", Value: "dial"})
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("distnet: dial %s: %w", l.addr, err)
		}
		// Full jitter keeps a herd of restarting workers from dialing in
		// lockstep.
		sleep := time.Duration(l.dialRNG.Float64() * float64(backoff))
		time.Sleep(sleep + backoff/2)
		backoff *= 2
		backoff = min(backoff, dialBackoffMax)
	}
}

// run starts the reader, heartbeat, and retransmit loops. It owns the
// connection for the link's lifetime, reconnecting through connection loss
// until closed or failed.
func (l *link) run() {
	go l.readLoop()
	go l.tickLoop()
}

func (l *link) writeFrame(f Frame) {
	l.mu.Lock()
	fw := l.fw
	l.mu.Unlock()
	if fw == nil {
		return
	}
	if err := fw.writeFrame(f); err == nil {
		l.count("tx", len(f.Payload))
	}
	// Write errors surface via the read loop's reconnect; retransmit
	// re-delivers the payload.
}

// readLoop dispatches inbound frames until close; connection errors run
// the bounded reconnect-and-rejoin path inline.
func (l *link) readLoop() {
	for {
		l.mu.Lock()
		conn, closed := l.conn, l.closed
		l.mu.Unlock()
		if closed || conn == nil {
			return
		}
		f, err := ReadFrame(conn)
		if err != nil {
			if l.isClosed() {
				return
			}
			if !l.reconnect() {
				return
			}
			continue
		}
		l.count("rx", len(f.Payload))
		l.mu.Lock()
		l.lastRecv = time.Now()
		l.mu.Unlock()
		l.dispatch(f)
		f.release()
	}
}

func (l *link) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed || l.failed != nil
}

func (l *link) dispatch(f Frame) {
	switch f.Type {
	case ftJoinAck:
		if ack, err := decode[joinAckMsg](f.Payload); err == nil {
			l.mu.Lock()
			l.memberID = ack.MemberID
			l.mu.Unlock()
		}
	case ftReject:
		rj, _ := decode[rejectMsg](f.Payload)
		l.mu.Lock()
		l.rdvErr = fmt.Errorf("%w (code %d): %s", ErrRejected, rj.Code, rj.Reason)
		l.cond.Broadcast()
		l.mu.Unlock()
	case ftStart:
		if sm, err := decode[startMsg](f.Payload); err == nil {
			l.mu.Lock()
			if !l.hasStart || sm.Gen >= l.start.Gen {
				l.start = sm
				l.hasStart = true
			}
			l.cond.Broadcast()
			l.mu.Unlock()
		}
	case ftHeartbeatAck:
		l.mu.Lock()
		if f.Seq == l.hbSeq && !l.hbSentAt.IsZero() {
			rtt := time.Since(l.hbSentAt)
			l.hbSentAt = time.Time{}
			if telemetry.Enabled() {
				// Explicit ns-scale bounds: the default TimeBuckets are in
				// seconds, which would fold every RTT into the +Inf bucket
				// and ruin the -telemetry-summary quantiles.
				telemetry.Default().Metrics.Histogram(
					telemetry.MetricNetRTT, telemetry.RTTBucketsNS,
				).Observe(float64(rtt.Nanoseconds()))
			}
		}
		l.mu.Unlock()
	case ftBlob:
		r := mat.NewReader(f.Payload)
		gen := r.U32()
		if r.Err() != nil {
			return
		}
		blob := append([]byte(nil), r.Take(r.Len())...)
		l.mu.Lock()
		if gen == l.blobGen && l.blobReq != nil {
			l.blobRes, l.hasBlob = blob, true
			l.blobReq = nil
			l.cond.Broadcast()
		}
		l.mu.Unlock()
	case ftPeerDead:
		pd, _ := decode[peerDeadMsg](f.Payload)
		l.fail(&PeerDeathError{Gen: pd.Gen, Member: pd.DeadMember, Reason: pd.Reason})
	}
}

// fail records a terminal (for this generation) failure and wakes every
// waiter. The proc converts it into poisoned local ranks.
func (l *link) fail(err error) {
	l.mu.Lock()
	if l.closed || l.failed != nil {
		l.mu.Unlock()
		return
	}
	l.failed = err
	l.blobReq = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	l.onFailure(err)
}

// reconnect re-establishes the connection and reattaches membership,
// resending a pending blob request. Returns false when the dial budget is
// exhausted (the coordinator is declared dead).
func (l *link) reconnect() bool {
	l.mu.Lock()
	old := l.conn
	l.conn = nil
	gen := l.start.Gen
	id := l.memberID
	l.mu.Unlock()
	if old != nil {
		old.Close()
	}
	telemetry.IncCounter(telemetry.MetricNetRetries, 1,
		telemetry.Label{Key: "kind", Value: "reconnect"})
	if err := l.connect(); err != nil {
		l.fail(&PeerDeathError{Gen: gen, Reason: "reconnect failed: " + err.Error()})
		return false
	}
	// Reattach: a join with our member id at the current generation. The
	// coordinator re-acks (and re-sends start if we missed it).
	l.mu.Lock()
	rdvGen := l.rdvGen
	if rdvGen == 0 {
		rdvGen = gen
	}
	join := l.joinFrame(rdvGen, id)
	blob := l.blobReq
	l.mu.Unlock()
	l.writeFrame(join)
	if blob != nil {
		l.writeFrame(*blob)
	}
	return true
}

// joinFrame builds the join request for gen with member id (mu held). Only
// a fresh join (id 0) claims a world size: on rejoin after a peer death the
// agreed world is whatever the survivors sum to, which the coordinator
// decides.
func (l *link) joinFrame(gen uint32, id uint32) Frame {
	claim := uint32(0)
	if id == 0 && l.cfg.WorldSize > 0 {
		claim = uint32(l.cfg.WorldSize)
	}
	return Frame{Type: ftJoin, Payload: encode(&joinMsg{
		Gen: gen, MemberID: id, NLocal: uint32(l.cfg.LocalRanks),
		WorldSize: claim, ConfigDigest: l.cfg.ConfigDigest, Self: l.self,
		DataPort: uint32(l.cfg.dataPort),
	})}
}

// id returns the coordinator-assigned member id (0 before the first ack).
func (l *link) id() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.memberID
}

// rendezvous runs one join round and blocks until the coordinator starts
// generation gen (or rejects/fails). Retransmission of the join rides the
// tick loop, so a dropped join, ack, or start frame self-heals.
func (l *link) rendezvous(gen uint32) (startMsg, error) {
	l.mu.Lock()
	l.failed = nil
	l.rdvGen = gen
	l.rdvErr = nil
	join := l.joinFrame(gen, l.memberID)
	l.mu.Unlock()
	l.writeFrame(join)

	deadline := time.Now().Add(l.cfg.RendezvousTimeout)
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed {
			// abortLocal tore the link down: this process left the cluster
			// (organic local death) and can never be readmitted, so waiting
			// out the rendezvous window would only delay the driver's exit.
			l.rdvGen = 0
			return startMsg{}, errors.New("distnet: link closed")
		}
		if l.rdvErr != nil {
			err := l.rdvErr
			l.rdvGen = 0
			return startMsg{}, err
		}
		if l.failed != nil {
			err := l.failed
			l.rdvGen = 0
			return startMsg{}, err
		}
		// A start can outrun a lost join ack, whose member id the data
		// plane needs: keep re-sending the join until both are in.
		if l.hasStart && l.start.Gen >= gen && l.memberID != 0 {
			l.rdvGen = 0
			return l.start, nil
		}
		if time.Now().After(deadline) {
			l.rdvGen = 0
			return startMsg{}, fmt.Errorf("distnet: rendezvous for gen %d timed out after %v", gen, l.cfg.RendezvousTimeout)
		}
		l.waitPulse()
	}
}

// waitPulse waits on the cond with a timed wakeup so deadline checks run
// even when no frame arrives.
func (l *link) waitPulse() {
	done := make(chan struct{})
	t := time.AfterFunc(l.cfg.RetransmitEvery, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
		close(done)
	})
	l.cond.Wait()
	t.Stop()
}

// syncBlob exchanges the generation state blob: every member offers its
// payload (the coordinator's own member's is authoritative) and receives
// the agreed copy back.
func (l *link) syncBlob(gen uint32, payload []byte) ([]byte, error) {
	body := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(payload)), gen)
	body = append(body, payload...)
	f := Frame{Type: ftBlob, Payload: body}
	l.mu.Lock()
	l.blobGen = gen
	l.blobRes, l.hasBlob = nil, false
	l.blobReq = &f
	l.mu.Unlock()
	l.writeFrame(f)

	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.failed != nil {
			return nil, l.failed
		}
		if l.closed {
			return nil, errors.New("distnet: link closed")
		}
		if l.hasBlob {
			return l.blobRes, nil
		}
		l.waitPulse()
	}
}

// tickLoop drives heartbeats, retransmits, and coordinator-liveness
// checking on one timer.
func (l *link) tickLoop() {
	every := l.cfg.HeartbeatEvery
	if l.cfg.RetransmitEvery < every {
		every = l.cfg.RetransmitEvery
	}
	t := time.NewTicker(every)
	defer t.Stop()
	lastHB := time.Time{}
	lastRT := time.Time{}
	for range t.C {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		now := time.Now()
		var frames []Frame
		if now.Sub(lastHB) >= l.cfg.HeartbeatEvery {
			lastHB = now
			l.hbSeq++
			l.hbSentAt = now
			frames = append(frames, Frame{Type: ftHeartbeat, Seq: l.hbSeq})
		}
		retrans := false
		if now.Sub(lastRT) >= l.cfg.RetransmitEvery {
			lastRT = now
			if l.blobReq != nil {
				retrans = true
				frames = append(frames, *l.blobReq)
			}
			if l.rdvGen != 0 {
				frames = append(frames, l.joinFrame(l.rdvGen, l.memberID))
			}
		}
		dead := l.failed == nil && l.cfg.PeerDeadline > 0 &&
			now.Sub(l.lastRecv) > l.cfg.PeerDeadline
		gen := l.start.Gen
		l.mu.Unlock()
		if dead {
			l.fail(&PeerDeathError{Gen: gen, Reason: "no traffic from coordinator within peer deadline"})
			continue
		}
		if retrans {
			telemetry.IncCounter(telemetry.MetricNetRetries, 1,
				telemetry.Label{Key: "kind", Value: "retransmit"})
		}
		for _, f := range frames {
			l.writeFrame(f)
		}
	}
}

// close tears the link down: a graceful leave, then the conn.
func (l *link) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	conn := l.conn
	fw := l.fw
	l.cond.Broadcast()
	l.mu.Unlock()
	if fw != nil {
		fw.writeFrame(Frame{Type: ftLeave})
	}
	if conn != nil {
		conn.Close()
	}
}

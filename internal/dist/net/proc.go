package distnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/telemetry"
)

// Reduction-tree shapes. Every collective runs on the one tree engine
// (tree.go); the topology only decides how the coordinator wires members
// into a tree each generation. Results are bit-identical across shapes:
// both realize the canonical pairwise bracketing of dist/reduce.go.
const (
	// TopologyHub makes every member a direct child of the coordinator's
	// process: depth 1, O(P·n) ingress at the root. It is the default.
	TopologyHub = "hub"
	// TopologyTree arranges members in a deterministic binary tree keyed
	// by global rank: interior members merge their children's segments
	// with their own and forward one payload upward, so per-process wire
	// volume is O(n·log P) worst-case per link and the fold work is
	// distributed.
	TopologyTree = "tree"
)

// defaultChunkElems is the sum collectives' chunk size in float64
// elements (64 KiB payload chunks): large enough to amortize framing,
// small enough that folds overlap receives and peak buffering stays
// bounded.
const defaultChunkElems = 8192

// dialBackoffBase and dialBackoffMax shape the reconnect backoff of the
// coordinator link and the tree parent dial; each dial loop gives up after
// Config.RendezvousTimeout.
const (
	dialBackoffBase = 50 * time.Millisecond
	dialBackoffMax  = time.Second
)

// Config describes one process's place in a TCP training cluster.
type Config struct {
	// Listen makes this process the coordinator, bound to this TCP address.
	// Exactly one of Listen/Listener (coordinator) or Join (member) is set.
	Listen string
	// Listener optionally supplies a pre-bound listener (tests bind :0 and
	// read the port back from it).
	Listener net.Listener
	// Join is the coordinator's address for a non-coordinator process.
	Join string

	// LocalRanks is how many global ranks this process hosts (≥1).
	LocalRanks int
	// WorldSize is the total rank count across all processes. Required on
	// the coordinator; on joiners it is an optional claim that must agree.
	WorldSize int
	// ConfigDigest fingerprints the training configuration; processes with
	// disagreeing digests are rejected at rendezvous rather than allowed to
	// diverge numerically mid-run.
	ConfigDigest uint64
	// Seed drives deterministic transport randomness (dial jitter, socket
	// fault draws).
	Seed uint64
	// Faults optionally injects deterministic socket-level faults on every
	// link (both directions).
	Faults *SocketFaultPlan

	// HeartbeatEvery is the liveness probe period (default 250ms).
	HeartbeatEvery time.Duration
	// PeerDeadline declares a silent peer dead (default 3s); it also sizes
	// the reconnect grace window, and twice it bounds how long the
	// coordinator waits for survivors after a death.
	PeerDeadline time.Duration
	// RetransmitEvery re-sends unacknowledged requests (default 400ms).
	RetransmitEvery time.Duration
	// RendezvousTimeout bounds the initial join, each rejoin round and
	// each dial loop (default 30s).
	RendezvousTimeout time.Duration
	// CollTimeout arms the stuck-collective watchdog — the transport-level
	// equivalent of the in-process barrier watchdog: when a collective has
	// been open at the tree's root for longer than this, the coordinator
	// declares dead a root child (or its own process) whose contribution
	// is still missing. Zero disables it.
	CollTimeout time.Duration

	// Topology selects the reduction tree's shape (TopologyHub or
	// TopologyTree; default hub). Only the coordinator's value matters:
	// it wires the tree and members learn their place at rendezvous.
	Topology string
	// ChunkElems is the chunk size, in float64 elements, that sum
	// collectives are cut into on the wire (default 8192); the
	// coordinator's value is used cluster-wide. The chunking never changes
	// result bits — the canonical bracketing is per-element — only
	// buffering and overlap.
	ChunkElems int

	// dataPort is the bound data listener port, filled in by Start before
	// the join handshake.
	dataPort int
}

func (c Config) withDefaults() Config {
	def := func(d *time.Duration, v time.Duration) {
		if *d <= 0 {
			*d = v
		}
	}
	def(&c.HeartbeatEvery, 250*time.Millisecond)
	def(&c.PeerDeadline, 3*time.Second)
	def(&c.RetransmitEvery, 400*time.Millisecond)
	def(&c.RendezvousTimeout, 30*time.Second)
	if c.LocalRanks <= 0 {
		c.LocalRanks = 1
	}
	if c.Topology == "" {
		c.Topology = TopologyHub
	}
	if c.ChunkElems <= 0 {
		c.ChunkElems = defaultChunkElems
	}
	return c
}

// localColl accumulates this process's rank contributions to one
// collective; the last local rank to deposit hands them all to the engine.
type localColl struct {
	op    byte
	parts []part
	have  int
	res   [][]byte // per-chunk result data, shared read-only by the local ranks
	done  bool
	taken int
}

// Proc hosts this OS process's local ranks in a multi-process cluster. It
// owns the control link, the data-plane engine and, on the coordinator
// process, the rendezvous service; each local rank drives a dist.Comm
// whose collectives ride the engine.
type Proc struct {
	cfg   Config
	coord *coordinator
	link  *link
	tree  *treeEngine

	mu       sync.Mutex
	cond     *sync.Cond
	gen      uint32
	world    int
	baseRank int
	colls    map[uint64]*localColl
	failed   error
	closed   bool
	// seqFloor is the highest collective sequence number any worker has
	// used this generation. A later Run in the same generation starts its
	// workers above it, so sequence numbers never alias completed
	// collectives (the engine would drop or answer them as late repeats).
	seqFloor uint64
	rankA    atomic.Int32 // baseRank mirror for lock-free telemetry labels

	// Whole-process TCP traffic (payload + framing), both directions,
	// across control and data connections. BenchmarkNetAllReduce reads
	// these to compare coordinator ingress across topologies.
	rxBytes atomic.Int64
	txBytes atomic.Int64
}

// countBytes accounts one frame's wire traffic to this process: the
// benchmark counters always, and the global plus per-rank telemetry
// counters when telemetry is on.
func (p *Proc) countBytes(dir string, payloadLen int) {
	n := int64(payloadLen + headerLen + trailerLen)
	if dir == "rx" {
		p.rxBytes.Add(n)
	} else {
		p.txBytes.Add(n)
	}
	if telemetry.Enabled() {
		telemetry.IncCounter(telemetry.MetricNetBytes, n,
			telemetry.Label{Key: "dir", Value: dir})
		// Per-rank attribution starts once rendezvous assigns this
		// process its base rank; handshake traffic before that would
		// otherwise be mislabeled as rank 0's on every process.
		if r := p.rankA.Load(); r >= 0 {
			telemetry.IncCounter(telemetry.MetricNetRankBytes, n,
				telemetry.Label{Key: "dir", Value: dir},
				telemetry.Label{Key: "rank", Value: strconv.Itoa(int(r))})
		}
	}
}

// NetBytes returns the cumulative TCP bytes this process has received and
// sent (payload + framing) across all its connections.
func (p *Proc) NetBytes() (rx, tx int64) {
	return p.rxBytes.Load(), p.txBytes.Load()
}

// Start joins (or forms) the cluster and blocks until generation 1 begins:
// every expected rank present, ranks assigned, collectives ready.
func Start(cfg Config) (*Proc, error) {
	cfg = cfg.withDefaults()
	isCoord := cfg.Listen != "" || cfg.Listener != nil
	if isCoord && cfg.Join != "" {
		return nil, fmt.Errorf("distnet: -listen and -join are mutually exclusive")
	}
	if !isCoord && cfg.Join == "" {
		return nil, fmt.Errorf("distnet: need -listen (coordinator) or -join ADDR (member)")
	}
	if isCoord && cfg.WorldSize < cfg.LocalRanks {
		return nil, fmt.Errorf("distnet: coordinator world size %d < local ranks %d", cfg.WorldSize, cfg.LocalRanks)
	}

	switch cfg.Topology {
	case TopologyHub, TopologyTree:
	default:
		return nil, fmt.Errorf("distnet: unknown topology %q (want %q or %q)",
			cfg.Topology, TopologyHub, TopologyTree)
	}

	p := &Proc{cfg: cfg, colls: map[uint64]*localColl{}}
	p.cond = sync.NewCond(&p.mu)
	p.rankA.Store(-1) // no per-rank byte attribution until rendezvous

	// The data listener opens before the join handshake so the advertised
	// DataPort is already bound.
	tln, err := net.Listen("tcp", ":0")
	if err != nil {
		return nil, fmt.Errorf("distnet: data listen: %w", err)
	}
	p.tree = newTreeEngine(p, tln)
	p.cfg.dataPort = p.tree.port

	addr := cfg.Join
	var ln net.Listener
	if isCoord {
		ln = cfg.Listener
		if ln == nil {
			ln, err = net.Listen("tcp", cfg.Listen)
			if err != nil {
				p.Close()
				return nil, fmt.Errorf("distnet: listen %s: %w", cfg.Listen, err)
			}
		}
		addr = ln.Addr().String()
	}

	// Every process — the coordinator included, over loopback — reaches the
	// rendezvous service through one client link. It exists before the
	// coordinator starts, whose scan reads the link's id.
	p.link = newLink(&p.cfg, addr, isCoord, p.onFailure)
	p.link.count = p.countBytes
	if isCoord {
		p.coord = newCoordinator(&p.cfg, ln, p.countBytes, p.tree)
	}
	if err := p.link.connect(); err != nil {
		p.Close()
		return nil, err
	}
	p.link.run()
	sm, err := p.link.rendezvous(1)
	if err == nil {
		err = p.applyStart(sm)
	}
	if err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// applyStart installs a generation's start message: rank assignment and
// this process's place in the reduction tree.
func (p *Proc) applyStart(sm startMsg) error {
	if sm.TreeParent == "" && sm.BaseRank != 0 {
		return fmt.Errorf("distnet: gen %d start names no tree parent for base rank %d", sm.Gen, sm.BaseRank)
	}
	p.mu.Lock()
	p.gen, p.world, p.baseRank = sm.Gen, int(sm.WorldSize), int(sm.BaseRank)
	p.seqFloor = 0 // wire sequences are generation-tagged; restart small
	p.rankA.Store(int32(p.baseRank))
	p.mu.Unlock()
	p.tree.install(sm)
	if telemetry.Enabled() {
		telemetry.SetGauge(telemetry.MetricNetTreeDepth, float64(sm.TreeDepth))
	}
	return nil
}

// WorldSize returns the current generation's total rank count.
func (p *Proc) WorldSize() int { p.mu.Lock(); defer p.mu.Unlock(); return p.world }

// BaseRank returns this process's first global rank in the current
// generation.
func (p *Proc) BaseRank() int { p.mu.Lock(); defer p.mu.Unlock(); return p.baseRank }

// LocalRanks returns how many ranks this process hosts.
func (p *Proc) LocalRanks() int { return p.cfg.LocalRanks }

// Gen returns the current membership generation.
func (p *Proc) Gen() int { p.mu.Lock(); defer p.mu.Unlock(); return int(p.gen) }

// Err returns the failure that poisoned the current generation, if any.
func (p *Proc) Err() error { p.mu.Lock(); defer p.mu.Unlock(); return p.failed }

func (p *Proc) onResult(seq uint64, res [][]byte) {
	p.mu.Lock()
	if lc := p.colls[seq]; lc != nil && !lc.done {
		lc.res = res
		lc.done = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// onFailure poisons the generation: waiting ranks wake into the poison
// panic, and the engine goes idle — no parent, no children, generation 0 —
// so a collective of the failed generation can no longer complete for
// anyone (a member the coordinator declared dead must not be handed a
// result the survivors never saw).
func (p *Proc) onFailure(err error) {
	p.mu.Lock()
	if p.failed == nil {
		p.failed = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.tree.install(startMsg{})
}

// ErrCollectiveOverlap withdraws a process when one of its ranks deposits
// a collective while an earlier one is undelivered: the data plane keeps
// only the last completed collective and relies on that order (tree.go).
var ErrCollectiveOverlap = errors.New("distnet: collective deposited while an earlier one is undelivered")

// wireSeq tags a collective sequence number with its generation so a stale
// in-flight result from before a rejoin can never alias a live collective.
func wireSeq(gen uint32, seq uint64) uint64 {
	return uint64(gen)<<40 | (seq & (1<<40 - 1))
}

// collective deposits one local rank's contribution — which the engine
// owns from here on — and blocks until the result arrives. The last local
// rank to deposit submits the process's parts. Any generation failure
// (peer death, unreachable coordinator) surfaces as the in-process
// transport's poison panic, dist.ErrClusterPoisoned.
func (p *Proc) collective(slot int, op byte, pt part, seq uint64) [][]byte {
	p.mu.Lock()
	if p.failed != nil || p.closed {
		p.mu.Unlock()
		panic(dist.ErrClusterPoisoned)
	}
	gen := p.gen
	if seq > p.seqFloor {
		p.seqFloor = seq
	}
	ws := wireSeq(gen, seq)
	for open, olc := range p.colls {
		if open < ws && !olc.done {
			err := fmt.Errorf("%w: rank %d deposited seq %d while seq %d is open",
				ErrCollectiveOverlap, p.baseRank+slot, seq, open&(1<<40-1))
			p.mu.Unlock()
			p.abortLocal(err)
			panic(dist.ErrClusterPoisoned)
		}
	}
	lc := p.colls[ws]
	if lc == nil {
		lc = &localColl{op: op, parts: make([]part, p.cfg.LocalRanks)}
		p.colls[ws] = lc
	}
	if lc.op != op {
		p.mu.Unlock()
		panic(fmt.Sprintf("distnet: local collective sequence mismatch at seq %d: %s vs %s",
			seq, opName(lc.op), opName(op)))
	}
	lc.parts[slot] = pt
	lc.have++
	last := lc.have == p.cfg.LocalRanks
	p.mu.Unlock()
	if last {
		p.tree.submit(ws, op, lc.parts)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	for !lc.done && p.failed == nil && !p.closed && p.gen == gen {
		p.cond.Wait()
	}
	if !lc.done {
		panic(dist.ErrClusterPoisoned)
	}
	lc.taken++
	if lc.taken == p.cfg.LocalRanks {
		delete(p.colls, ws)
	}
	return lc.res
}

// Run drives fn on every local rank (one goroutine each), recovering
// panics into dist.WorkerError exactly like the in-process cluster's
// RunWithRecovery, so train.Drive handles both transports with one code
// path. An organic local panic withdraws the process from the cluster so
// remote survivors fail loudly and rejoin instead of hanging.
func (p *Proc) Run(fn func(c dist.Comm)) []error {
	p.mu.Lock()
	n := p.cfg.LocalRanks
	base, world, gen := p.baseRank, p.world, p.gen
	floor := p.seqFloor
	p.mu.Unlock()

	var emu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	wg.Add(n)
	for slot := 0; slot < n; slot++ {
		go func(slot int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					emu.Lock()
					errs = append(errs, dist.WorkerError{Rank: base + slot, Err: rec})
					emu.Unlock()
					if rec != any(dist.ErrClusterPoisoned) {
						telemetry.IncCounter(telemetry.MetricWorkerFailures, 1)
						telemetry.Instant("worker_failure", base+slot,
							telemetry.Label{Key: "error", Value: fmt.Sprint(rec)})
						p.abortLocal(fmt.Errorf("distnet: local rank %d panicked: %v", base+slot, rec))
					}
				}
			}()
			fn(&netWorker{p: p, slot: slot, base: base, world: world, gen: gen, seq: floor})
		}(slot)
	}
	wg.Wait()
	return errs
}

// abortLocal withdraws a process whose own rank died organically: local
// siblings poison immediately; the severed connection walks the coordinator
// through its normal peer-death path so remote survivors shrink and rejoin.
func (p *Proc) abortLocal(err error) {
	p.onFailure(err)
	p.link.close()
}

// Rejoin re-enters the cluster at the next generation after a peer death.
// It blocks until the coordinator has gathered every survivor and assigned
// fresh ranks; afterwards Run may be called again. Typical driver shape:
// reload the last checkpoint (see SyncSnapshot), Rejoin, Run.
func (p *Proc) Rejoin() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("distnet: proc closed")
	}
	gen := p.gen
	p.colls = map[uint64]*localColl{}
	p.mu.Unlock()
	sm, err := p.link.rendezvous(gen + 1)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.failed = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	if err := p.applyStart(sm); err != nil {
		return err
	}
	telemetry.IncCounter(telemetry.MetricRecoveries, 1,
		telemetry.Label{Key: "transport", Value: "tcp"})
	return nil
}

// SyncSnapshot agrees on the generation's resume state: the coordinator
// process's blob (typically its latest checkpoint snapshot) is
// authoritative and every process receives a copy — members have no shared
// checkpoint directory, so this is how a joiner resumes bit-identically.
func (p *Proc) SyncSnapshot(local []byte) ([]byte, error) {
	p.mu.Lock()
	gen := p.gen
	p.mu.Unlock()
	return p.link.syncBlob(gen, local)
}

// Close leaves the cluster and releases the link, the data-plane engine
// and, on the coordinator process, the rendezvous service.
func (p *Proc) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	if p.link != nil {
		p.link.close()
	}
	p.tree.close()
	if p.coord != nil {
		p.coord.close()
	}
	return nil
}

// netWorker is one local rank's dist.Comm over the TCP transport. Rank,
// world size, and generation are pinned at Run time; collectives are
// numbered by a per-rank sequence counter, which every rank advances
// identically (the SPMD invariant the simulated cluster shares).
type netWorker struct {
	p     *Proc
	slot  int
	base  int
	world int
	gen   uint32
	seq   uint64
}

// Size implements dist.Comm.
func (w *netWorker) Size() int { return w.world }

// ID implements dist.Comm.
func (w *netWorker) ID() int { return w.base + w.slot }

func (w *netWorker) next() uint64 {
	w.seq++
	return w.seq
}

func (w *netWorker) countComm(op string, elems int) {
	if !telemetry.Enabled() {
		return
	}
	lbl := telemetry.Label{Key: "op", Value: op}
	telemetry.IncCounter(telemetry.MetricCommBytes, int64(8*elems), lbl)
	telemetry.IncCounter(telemetry.MetricCommCalls, 1, lbl)
}

// sumPart copies a rank's values into the pooled vector the engine folds
// in place.
func sumPart(vals ...float64) part {
	f := mat.GetFloats(len(vals))
	copy(f, vals)
	return part{f: f}
}

// sumResult fills dst from a sum collective's per-chunk result data.
func sumResult(dst []float64, res [][]byte) {
	for _, data := range res {
		n := len(data) / 8
		if n > len(dst) {
			panic(dist.ErrClusterPoisoned)
		}
		mat.ReadFloats(dst[:n], data)
		dst = dst[n:]
	}
	if len(dst) != 0 {
		panic(dist.ErrClusterPoisoned)
	}
}

// concatPart builds a rank's length-prefixed contribution to a concat
// collective: an encoded matrix in a pooled buffer, or raw bytes (maybe
// none) behind their pooled prefix, uncopied.
func concatPart(m *mat.Dense, raw []byte) part {
	if m != nil {
		n := 8 + 8*m.Rows()*m.Cols()
		return part{b: mat.AppendMat(binary.LittleEndian.AppendUint32(mat.GetBytes(4 + n)[:0], uint32(n)), m)}
	}
	return part{b: binary.LittleEndian.AppendUint32(mat.GetBytes(4)[:0], uint32(len(raw))), raw: raw}
}

// concatResult splits a concat collective's result into its per-rank byte
// strings. They alias the delivered result, which every local rank shares:
// read them, never write them.
func concatResult(res [][]byte, world int) [][]byte {
	r := mat.NewReader(res[0])
	out := make([][]byte, 0, world)
	for r.Len() > 0 && r.Err() == nil {
		out = append(out, counted(r, 1))
	}
	if r.Err() != nil || len(out) != world {
		panic(dist.ErrClusterPoisoned)
	}
	return out
}

func mustDecodeMat(b []byte) *mat.Dense {
	m, err := decodeMat(b)
	if err != nil {
		panic(dist.ErrClusterPoisoned)
	}
	return m
}

// AllReduceMat implements dist.Comm, decoding the sum straight into m.
// Whatever the tree's shape, the bracketing is the canonical pairwise
// order of dist/reduce.go — bitwise identical to the in-process cluster's.
func (w *netWorker) AllReduceMat(m *mat.Dense) *mat.Dense {
	w.countComm("allreduce", m.Rows()*m.Cols())
	res := w.p.collective(w.slot, opAllReduce, sumPart(m.Data()...), w.next())
	sumResult(m.Data(), res)
	return m
}

// AllGatherMat implements dist.Comm.
func (w *netWorker) AllGatherMat(m *mat.Dense) []*mat.Dense {
	w.countComm("allgather", m.Rows()*m.Cols())
	res := w.p.collective(w.slot, opAllGather, concatPart(m, nil), w.next())
	out := make([]*mat.Dense, w.world)
	for i, pb := range concatResult(res, w.world) {
		if i == w.ID() {
			out[i] = m
		} else {
			out[i] = mustDecodeMat(pb)
		}
	}
	return out
}

// BroadcastMat implements dist.Comm: a concat collective to which only the
// root contributes a payload.
func (w *netWorker) BroadcastMat(root int, m *mat.Dense) *mat.Dense {
	if root < 0 || root >= w.world {
		panic(fmt.Sprintf("dist: broadcast root %d out of range", root))
	}
	if w.ID() != root {
		res := w.p.collective(w.slot, opBroadcast, concatPart(nil, nil), w.next())
		return mustDecodeMat(concatResult(res, w.world)[root])
	}
	w.countComm("broadcast", m.Rows()*m.Cols())
	w.p.collective(w.slot, opBroadcast, concatPart(m, nil), w.next())
	return m
}

// AllReduceScalar implements dist.Comm: a one-element sum, so it lands on
// the canonical pairwise order like the in-process worker's
// gather-then-fold.
func (w *netWorker) AllReduceScalar(v float64) float64 {
	var out [1]float64
	sumResult(out[:], w.p.collective(w.slot, opScalar, sumPart(v), w.next()))
	return out[0]
}

// Barrier implements dist.Barrierer: an empty collective every rank joins.
func (w *netWorker) Barrier() {
	w.p.collective(w.slot, opBarrier, concatPart(nil, nil), w.next())
}

// GatherBytes implements dist.ByteGatherer (the checkpoint gather). b is
// sent without a staging copy; rank 0's result is views of the frames and
// payloads its process holds until its next collective, every other
// rank's nil.
func (w *netWorker) GatherBytes(b []byte) [][]byte {
	res := w.p.collective(w.slot, opGatherBytes, concatPart(nil, b), w.next())
	if w.ID() != 0 {
		return nil
	}
	if len(res) != w.world {
		panic(dist.ErrClusterPoisoned)
	}
	return res
}

// ConfigDigestOf fingerprints the fields that must agree across processes
// for bit-identical training: FNV-1a over the caller-assembled field list.
func ConfigDigestOf(fields ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, f := range fields {
		for i := 0; i < len(f); i++ {
			h ^= uint64(f[i])
			h *= prime64
		}
		h ^= 0xff // field separator
		h *= prime64
	}
	return h
}

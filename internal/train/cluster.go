package train

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/dist"
	distnet "repro/internal/dist/net"
)

// Cluster is where a Job's ranks run: Local, InProcess or OverTCP. The seam
// is only what differs between them. Which rank owns the Result does not —
// it is the one whose Comm has ID 0, wherever that rank is hosted.
type Cluster interface {
	// run drives fn once per rank this process hosts for one generation —
	// concurrently, one Comm each — and returns the ranks' panics as
	// errors (none: the generation ran to completion).
	run(fn func(dist.Comm)) []error
	// syncSnapshot agrees on the snapshot the coming generation resumes
	// from, given this process's candidate (nil: none).
	syncSnapshot(local *ckpt.Snapshot) (*ckpt.Snapshot, error)
	// regroup readies the next generation after a failed one.
	regroup() error
}

// Local runs the single rank of dist.Local() on the calling goroutine.
func Local() Cluster { return local{} }

type local struct{}

func (local) run(fn func(dist.Comm)) (errs []error) {
	defer func() {
		if rec := recover(); rec != nil {
			errs = []error{dist.WorkerError{Rank: 0, Err: rec}}
		}
	}()
	fn(dist.Local())
	return nil
}

// Every rank is in this process, so its one candidate is the agreement.
func (local) syncSnapshot(s *ckpt.Snapshot) (*ckpt.Snapshot, error) { return s, nil }

func (local) regroup() error { return nil }

// InProcess runs c's ranks as goroutines. After a failure c is reset (one
// rank smaller under c.ShrinkOnFailure); c's barrier watchdog
// (SetBarrierTimeout) is what turns a hung rank into a failure.
func InProcess(c *dist.Cluster) Cluster { return inProcess{c} }

type inProcess struct{ c *dist.Cluster }

func (p inProcess) run(fn func(dist.Comm)) []error {
	return p.c.RunWithRecovery(func(w *dist.Worker) { fn(w) })
}

func (inProcess) syncSnapshot(s *ckpt.Snapshot) (*ckpt.Snapshot, error) { return s, nil }

func (p inProcess) regroup() error {
	p.c.Reset()
	return nil
}

// OverTCP runs this OS process's share of a multi-process cluster's ranks.
// The transport keeps the failure semantics aligned with the in-process
// chaos layer — a dead peer poisons every rank with
// dist.ErrClusterPoisoned — and its stuck-collective watchdog is
// distnet.Config.CollTimeout.
func OverTCP(p *distnet.Proc) Cluster { return overTCP{p} }

type overTCP struct{ p *distnet.Proc }

func (t overTCP) run(fn func(dist.Comm)) []error { return t.p.Run(fn) }

// syncSnapshot exchanges candidates through the coordinator, whose copy is
// authoritative: processes share no checkpoint directory, so a fresh joiner
// or a member that never hosted rank 0 starts from whatever the coordinator
// has — which is also what makes a resumed run bit-identical on every
// process. An empty blob means a cold start everywhere.
func (t overTCP) syncSnapshot(local *ckpt.Snapshot) (*ckpt.Snapshot, error) {
	var blob []byte
	if local != nil {
		blob = ckpt.Encode(local)
	}
	agreed, err := t.p.SyncSnapshot(blob)
	if err != nil {
		return nil, fmt.Errorf("train: snapshot sync: %w", err)
	}
	if len(agreed) == 0 {
		return nil, nil
	}
	snap, err := ckpt.Decode(agreed)
	if err != nil {
		return nil, fmt.Errorf("train: decode synced snapshot: %w", err)
	}
	return snap, nil
}

// regroup is the rendezvous for the next generation: the coordinator
// gathers the survivors, reassigns contiguous ranks, and the world shrinks
// by the dead process's share. A process that cannot rejoin (it was the one
// that died organically, or the window expired) surfaces the error to its
// driver.
func (t overTCP) regroup() error {
	if err := t.p.Rejoin(); err != nil {
		return fmt.Errorf("train: rejoin after failure: %w", err)
	}
	return nil
}

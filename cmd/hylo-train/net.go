package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/dist"
	distnet "repro/internal/dist/net"
	"repro/internal/train"
)

// netOpts carries the -listen/-join cluster flags into the multi-process
// launch path.
type netOpts struct {
	listen         string
	join           string
	localRanks     int
	world          int
	netFault       string
	topology       string
	chunkElems     int
	seed           uint64
	barrierTimeout time.Duration
	ckptDir        string
	ckptEvery      int
	resume         bool
	faults         *dist.FaultPlan
	digestFields   []string
}

// validate checks the networking flag combination; main runs it during
// the flag-validation pass so bad flags exit 2 like every other flag
// error, before any socket is opened.
func (o netOpts) validate() error {
	if o.listen != "" && o.join != "" {
		return fmt.Errorf("-listen and -join are mutually exclusive")
	}
	if o.ckptDir == "" {
		return fmt.Errorf("-listen/-join mode requires -checkpoint-dir (rendezvous recovery resumes from snapshots)")
	}
	if o.localRanks < 1 || o.localRanks > o.world {
		return fmt.Errorf("-net-ranks must be in [1, -workers] (got %d of %d)", o.localRanks, o.world)
	}
	if o.listen != "" {
		if err := cliutil.ValidateListenAddr(o.listen); err != nil {
			return err
		}
	}
	if _, err := cliutil.ParsePeerList(o.join); err != nil {
		return err
	}
	if _, err := distnet.ParseSocketFaultSpec(o.netFault); err != nil {
		return fmt.Errorf("-net-fault: %v", err)
	}
	switch o.topology {
	case "", distnet.TopologyHub, distnet.TopologyTree:
	default:
		return fmt.Errorf("-net-topology must be %q or %q (got %q)",
			distnet.TopologyHub, distnet.TopologyTree, o.topology)
	}
	if o.chunkElems < 0 {
		return fmt.Errorf("-net-chunk must be >= 0 (got %d)", o.chunkElems)
	}
	return nil
}

// runNetCluster rendezvouses with (or coordinates) the cluster and drives
// job over it. Every process runs this same function; only the process
// hosting global rank 0 returns a populated Result.
func runNetCluster(o netOpts, job train.Job) (train.Result, error) {
	if err := o.validate(); err != nil {
		return train.Result{}, err
	}
	peers, _ := cliutil.ParsePeerList(o.join)
	sockPlan, err := distnet.ParseSocketFaultSpec(o.netFault)
	if err != nil {
		return train.Result{}, fmt.Errorf("-net-fault: %v", err)
	}
	if sockPlan != nil {
		sockPlan.Seed = o.seed
	}

	ncfg := distnet.Config{
		Listen:       o.listen,
		LocalRanks:   o.localRanks,
		WorldSize:    o.world,
		ConfigDigest: distnet.ConfigDigestOf(o.digestFields...),
		Seed:         o.seed,
		Faults:       sockPlan,
		CollTimeout:  o.barrierTimeout,
		Topology:     o.topology,
		ChunkElems:   o.chunkElems,
	}

	var proc *distnet.Proc
	if o.listen != "" {
		proc, err = distnet.Start(ncfg)
	} else {
		// Candidate coordinators are tried in order; the first reachable
		// one that accepts the handshake wins.
		for i, addr := range peers {
			ncfg.Join = addr
			proc, err = distnet.Start(ncfg)
			if err == nil {
				break
			}
			if i < len(peers)-1 {
				fmt.Fprintf(os.Stderr, "hylo-train: coordinator %s unavailable (%v), trying next\n", addr, err)
			}
		}
	}
	if err != nil {
		return train.Result{}, err
	}
	defer proc.Close()

	fmt.Printf("cluster up: world=%d ranks=%d..%d gen=%d\n",
		proc.WorldSize(), proc.BaseRank(), proc.BaseRank()+proc.LocalRanks()-1, proc.Gen())

	return train.Drive(context.Background(), train.OverTCP(proc), job, train.ElasticConfig{
		Dir: o.ckptDir, Every: o.ckptEvery, Resume: o.resume, Faults: o.faults,
	})
}

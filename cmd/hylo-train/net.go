package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	distnet "repro/internal/dist/net"
	"repro/internal/train"
)

// netOpts carries the -listen/-join cluster flags into the multi-process
// launch path.
type netOpts struct {
	listen         string
	join           string
	localRanks     int
	netFault       string
	topology       string
	barrierTimeout time.Duration
}

// enabled reports whether this process is part of a TCP cluster.
func (o netOpts) enabled() bool { return o.listen != "" || o.join != "" }

// validate checks the networking flag combination for a world of -workers
// ranks; build runs it so bad flags exit 2 like every other flag error,
// before any socket is opened.
func (o netOpts) validate(world int, ckptDir string) error {
	if o.listen != "" && o.join != "" {
		return fmt.Errorf("-listen and -join are mutually exclusive")
	}
	if ckptDir == "" {
		return fmt.Errorf("-listen/-join mode requires -checkpoint-dir (rendezvous recovery resumes from snapshots)")
	}
	if o.localRanks < 1 || o.localRanks > world {
		return fmt.Errorf("-net-ranks must be in [1, -workers] (got %d of %d)", o.localRanks, world)
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
	return nil
}

// runNetCluster rendezvouses with (or coordinates) the cluster and drives
// job over it; digest is the configuration every process must share. Every
// process runs this same function; only the process hosting global rank 0
// returns a populated Result.
func runNetCluster(o netOpts, spec cliutil.Spec, digest uint64, job train.Job, ec train.ElasticConfig) (train.Result, error) {
	peers, _ := cliutil.ParsePeerList(o.join)
	sockPlan, _ := distnet.ParseSocketFaultSpec(o.netFault) // both validated in build
	if sockPlan != nil {
		sockPlan.Seed = spec.Seed
	}

	ncfg := distnet.Config{
		Listen:       o.listen,
		LocalRanks:   o.localRanks,
		WorldSize:    spec.Workers,
		ConfigDigest: digest,
		Seed:         spec.Seed,
		Faults:       sockPlan,
		CollTimeout:  o.barrierTimeout,
		Topology:     o.topology,
	}

	var proc *distnet.Proc
	var err error
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

	return train.Drive(context.Background(), train.OverTCP(proc), job, ec)
}

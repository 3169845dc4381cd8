// Command hylo-train runs end-to-end training of a substitute model with a
// chosen optimizer, mirroring the paper artifact's training scripts. The
// analysis flags follow the artifact: -profiling prints the phase-time
// breakdown, -grad-norm HyLo's per-epoch mode choices. The artifact's
// --rank-analysis is `hylo-bench -exp fig10`.
//
// The telemetry flags export the run's observability data: -trace writes
// Chrome trace-event JSON (open in chrome://tracing or Perfetto), -metrics
// writes Prometheus text exposition, -events writes a JSONL span log, and
// -telemetry-summary prints the top phase-time table at exit.
//
//	hylo-train -model 3c1f -optimizer hylo -epochs 10
//	hylo-train -model resnet -optimizer kaisa -workers 4 -profiling
//	hylo-train -model unet -optimizer hylo -workers 4 -csv run.csv
//	hylo-train -optimizer hylo -workers 4 -trace trace.json -metrics metrics.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/data"
	"repro/internal/dist"
	distnet "repro/internal/dist/net"
	"repro/internal/mat"
	"repro/internal/numerics"
	"repro/internal/train"
)

// options is hylo-train's command line: the run's Spec plus the settings
// only the CLI has.
type options struct {
	spec cliutil.Spec
	obs  *cliutil.Observability

	decayAt   string
	patience  int
	clip      float64
	augment   bool
	condLimit float64

	profiling, gradNorm bool
	csvPath             string

	ckptDir     string
	resume      bool
	faultInject string
	net         netOpts
}

// bindFlags registers every hylo-train flag on fs, the run's fields
// defaulting to cliutil.DefaultSpec.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{spec: cliutil.DefaultSpec()}
	s := &o.spec
	fs.StringVar(&s.Model, "model", s.Model, "3c1f | mlp | resnet | densenet | unet | vit")
	fs.StringVar(&s.Optimizer, "optimizer", s.Optimizer, "sgd | adam | kfac | kaisa | ekfac | kbfgs | sngd | hylo | hylo-kid | hylo-kis | hylo-random")
	fs.IntVar(&s.Epochs, "epochs", s.Epochs, "training epochs")
	fs.IntVar(&s.Batch, "batch", s.Batch, "per-worker batch size")
	fs.IntVar(&s.Workers, "workers", s.Workers, "simulated GPUs (data-parallel)")
	fs.Float64Var(&s.LR, "lr", s.LR, "base learning rate")
	fs.StringVar(&o.decayAt, "decay-at", "", "comma-separated epochs for 10x LR decay")
	fs.Float64Var(&s.Momentum, "momentum", s.Momentum, "SGD momentum")
	fs.Float64Var(&s.WeightDecay, "weight-decay", s.WeightDecay, "weight decay")
	fs.Float64Var(&s.Damping, "damping", s.Damping, "preconditioner damping alpha")
	fs.IntVar(&s.UpdateFreq, "freq", s.UpdateFreq, "second-order update frequency (iterations)")
	fs.Float64Var(&s.RankFrac, "rank-frac", s.RankFrac, "HyLo rank as a fraction of the global batch")
	fs.Float64Var(&s.Eta, "eta", s.Eta, "HyLo switching threshold")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "deterministic seed")
	fs.IntVar(&s.Classes, "classes", s.Classes, "synthetic dataset classes")
	fs.IntVar(&s.Samples, "samples", s.Samples, "synthetic samples per class")
	fs.BoolVar(&o.profiling, "profiling", false, "print the phase-time breakdown (artifact --profiling)")
	fs.BoolVar(&o.gradNorm, "grad-norm", false, "print HyLo per-epoch mode choices (artifact --grad-norm)")
	fs.StringVar(&o.csvPath, "csv", "", "write per-epoch stats to this CSV file")
	fs.BoolVar(&o.augment, "augment", false, "random flip/crop augmentation on training batches")
	fs.IntVar(&o.patience, "patience", 0, "early-stopping patience in epochs (0 = off)")
	fs.Float64Var(&o.clip, "clip", 0, "max global gradient norm (0 = off)")

	fs.StringVar(&o.ckptDir, "checkpoint-dir", "", "write fault-tolerant checkpoints to this directory (enables elastic recovery)")
	fs.IntVar(&s.CheckpointEvery, "checkpoint-every", s.CheckpointEvery, "epochs between checkpoints")
	fs.BoolVar(&o.resume, "resume", false, "resume from the latest good checkpoint in -checkpoint-dir")
	fs.StringVar(&o.faultInject, "fault-inject", "", "chaos spec, comma-separated: panic:RANK@STEP | bitflip:PROB | delay:PROB@DUR | degenerate:KIND@PROB with KIND dup|zero|huge (e.g. panic:1@40,degenerate:dup@0.5)")

	n := &o.net
	fs.StringVar(&n.listen, "listen", "", "coordinate a multi-process TCP cluster on this address (HOST:PORT or :PORT); -workers is the total rank count across all processes")
	fs.StringVar(&n.join, "join", "", "join a multi-process cluster at this coordinator address (comma-separated candidates are tried in order)")
	fs.IntVar(&n.localRanks, "net-ranks", 1, "global ranks hosted by this process in -listen/-join mode")
	fs.StringVar(&n.netFault, "net-fault", "", "socket fault spec, comma-separated: drop:PROB | dup:PROB | reorder:PROB | delay:PROB@DUR | partition:AFTER@DUR (e.g. drop:0.1,reorder:0.05)")
	fs.StringVar(&n.topology, "net-topology", distnet.TopologyHub, "shape of the collectives' reduction tree in -listen/-join mode: hub (every member a child of the coordinator's process) or tree (binary tree by rank; interior members merge and forward); results are bit-identical; every process must pass the same value")
	fs.DurationVar(&n.barrierTimeout, "barrier-timeout", 0, "convert a collective stuck longer than this into a recoverable worker failure (0 = watchdog off)")

	o.obs = cliutil.BindObservability(fs)
	fs.Float64Var(&o.condLimit, "cond-limit", numerics.DefaultCondLimit, "condition-estimate threshold beyond which solves escalate damping / fall back")
	fs.Float64Var(&s.IDTol, "id-tol", s.IDTol, "KID numerical-rank truncation tolerance, in [0, 1)")
	fs.StringVar(&s.KidSketch, "kid-sketch", s.KidSketch, "randomized KID fast path for critical epochs: off | gauss | srht (unhealthy sketches fall back to the exact ID)")
	fs.IntVar(&s.KidOversample, "kid-oversample", s.KidOversample, "sketch width beyond the KID rank (randomized ID projects onto rank+oversample dimensions)")
	return o
}

// processLocal names the flags the processes of one TCP cluster may set
// differently: where each process listens, dials, stores and reports, and
// which faults it injects. Every other flag, a flag added later included,
// shapes either the arithmetic every replica must share or, like
// -net-topology, the wire protocol every process must speak
// (a mixed cluster would stall), so configDigest covers it and rendezvous
// rejects a mismatch.
var processLocal = map[string]bool{
	"listen": true, "join": true, "net-ranks": true, "net-fault": true,
	"checkpoint-dir": true, "resume": true, "barrier-timeout": true,
	"fault-inject": true, "profiling": true, "grad-norm": true, "csv": true,
	"trace": true, "metrics": true, "events": true, "telemetry-summary": true,
	"numerics-report": true,
}

// configDigest fingerprints every flag of fs outside processLocal, by name
// and parsed value.
func configDigest(fs *flag.FlagSet) uint64 {
	var fields []string
	fs.VisitAll(func(f *flag.Flag) {
		if !processLocal[f.Name] {
			fields = append(fields, f.Name+"="+f.Value.String())
		}
	})
	return distnet.ConfigDigestOf(fields...)
}

// build validates the command line and assembles the run it describes.
// Every error it returns is a usage error.
func (o *options) build() (train.Job, train.ElasticConfig, error) {
	var ec train.ElasticConfig
	if err := o.spec.Validate(); err != nil {
		return train.Job{}, ec, err
	}
	if !(o.condLimit > 1) || math.IsInf(o.condLimit, 1) {
		return train.Job{}, ec, fmt.Errorf("-cond-limit must be finite and > 1 (got %g)", o.condLimit)
	}
	decays, err := cliutil.ParseDecayEpochs(o.decayAt)
	if err != nil {
		return train.Job{}, ec, err
	}
	plan, err := cliutil.ParseFaultSpec(o.faultInject)
	if err != nil {
		return train.Job{}, ec, fmt.Errorf("-fault-inject: %v", err)
	}
	if plan != nil {
		plan.Seed = o.spec.Seed
		if o.ckptDir == "" {
			return train.Job{}, ec, fmt.Errorf("-fault-inject requires -checkpoint-dir (recovery needs somewhere to restore from)")
		}
		if plan.PanicStep >= 0 && plan.PanicRank >= o.spec.Workers {
			return train.Job{}, ec, fmt.Errorf("-fault-inject: panic rank %d does not exist with -workers %d", plan.PanicRank, o.spec.Workers)
		}
	}
	if o.resume && o.ckptDir == "" {
		return train.Job{}, ec, fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if err := cliutil.ValidateBarrierTimeout(o.net.barrierTimeout); err != nil {
		return train.Job{}, ec, err
	}
	if o.net.enabled() {
		if err := o.net.validate(o.spec.Workers, o.ckptDir); err != nil {
			return train.Job{}, ec, err
		}
	}

	job, err := o.spec.Job()
	if err != nil {
		return train.Job{}, ec, err
	}
	job.Config.LR.DecayAt = decays
	job.Config.Patience, job.Config.MaxGradNorm = o.patience, o.clip
	if o.augment {
		shape := job.Train.Shape
		job.Config.Augment = func(rng *mat.RNG) *data.Augmenter {
			return data.NewAugmenter(rng, shape, true, 2)
		}
	}
	ec = train.ElasticConfig{Dir: o.ckptDir, Every: o.spec.CheckpointEvery, Resume: o.resume, Faults: plan}
	return job, ec, nil
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	o.obs.Start()
	job, ec, err := o.build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hylo-train: %v\n", err)
		os.Exit(2)
	}
	numerics.SetCondLimit(o.condLimit)

	// One driver for every launch shape; only where the ranks run differs.
	// A checkpointed run uses the in-process cluster even at one worker.
	var res train.Result
	if o.net.enabled() {
		res, err = runNetCluster(o.net, o.spec, configDigest(flag.CommandLine), job, ec)
	} else {
		cluster := train.Local()
		if o.spec.Workers > 1 || o.ckptDir != "" {
			c := dist.NewCluster(o.spec.Workers)
			c.SetBarrierTimeout(o.net.barrierTimeout)
			cluster = train.InProcess(c)
		}
		res, err = train.Drive(context.Background(), cluster, job, ec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hylo-train: %v\n", err)
		os.Exit(1)
	}

	if o.net.enabled() && res.Method == "" {
		// A cluster process that does not host global rank 0 has no result
		// of its own; the coordinator process prints the shared metrics.
		fmt.Println("member run complete: metrics are reported by the process hosting rank 0")
	} else {
		fmt.Printf("model=%s optimizer=%s workers=%d\n", o.spec.Model, res.Method, o.spec.Workers)
		fmt.Printf("%-6s %-12s %-12s %-10s\n", "epoch", "train loss", "test metric", "elapsed")
		for _, st := range res.Stats {
			fmt.Printf("%-6d %-12.4f %-12.4f %-10.2fs\n",
				st.Epoch, st.TrainLoss, st.Metric, st.Elapsed.Seconds())
		}
		fmt.Printf("best metric: %.4f   state: %.2f MB\n", res.Best, float64(res.StateBytes)/(1<<20))
		if res.TimeToTarget > 0 {
			fmt.Printf("time-to-target(%.2f): %.2fs\n", job.Target, res.TimeToTarget.Seconds())
		}
		if o.gradNorm && len(res.EpochModes) > 0 {
			fmt.Printf("hylo per-epoch modes: %s\n", strings.Join(res.EpochModes, " "))
		}
		if o.profiling {
			fmt.Println("\nphase breakdown (rank 0):")
			fmt.Print(res.Timeline.String())
		}
		if o.csvPath != "" {
			if err := writeCSV(o.csvPath, res); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if err := o.obs.Finish(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hylo-train: %v\n", err)
		os.Exit(1)
	}
}

func writeCSV(path string, res train.Result) error {
	rows := make([][]string, len(res.Stats))
	for i, st := range res.Stats {
		rows[i] = []string{fmt.Sprint(st.Epoch), fmt.Sprintf("%.6f", st.TrainLoss),
			fmt.Sprintf("%.6f", st.Metric), fmt.Sprintf("%.3f", st.Elapsed.Seconds())}
	}
	return cliutil.WriteCSV(path, []string{"epoch", "train_loss", "test_metric", "elapsed_s"}, rows)
}

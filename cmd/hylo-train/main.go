// Command hylo-train runs end-to-end training of a substitute model with a
// chosen optimizer, mirroring the paper artifact's training scripts. The
// analysis flags follow the artifact: -profiling prints the phase-time
// breakdown, -grad-norm logs accumulated gradient norms, -rank-analysis
// reports kernel ranks.
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
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	distnet "repro/internal/dist/net"
	"repro/internal/mat"
	"repro/internal/numerics"
	"repro/internal/opt"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/train"
)

func main() {
	var (
		model     = flag.String("model", "3c1f", "3c1f | mlp | resnet | densenet | unet | vit")
		optimizer = flag.String("optimizer", "hylo", "sgd | adam | kfac | kaisa | ekfac | kbfgs | sngd | hylo | hylo-kid | hylo-kis | hylo-random")
		epochs    = flag.Int("epochs", 10, "training epochs")
		batch     = flag.Int("batch", 32, "per-worker batch size")
		workers   = flag.Int("workers", 1, "simulated GPUs (data-parallel)")
		lr        = flag.Float64("lr", 0.03, "base learning rate")
		decayAt   = flag.String("decay-at", "", "comma-separated epochs for 10x LR decay")
		momentum  = flag.Float64("momentum", 0.9, "SGD momentum")
		wd        = flag.Float64("weight-decay", 0, "weight decay")
		damping   = flag.Float64("damping", 0.1, "preconditioner damping alpha")
		freq      = flag.Int("freq", 5, "second-order update frequency (iterations)")
		rankFrac  = flag.Float64("rank-frac", 0.1, "HyLo rank as a fraction of the global batch")
		eta       = flag.Float64("eta", 0.25, "HyLo switching threshold")
		seed      = flag.Uint64("seed", 42, "deterministic seed")
		classes   = flag.Int("classes", 8, "synthetic dataset classes")
		samples   = flag.Int("samples", 64, "synthetic samples per class")
		profiling = flag.Bool("profiling", false, "print the phase-time breakdown (artifact --profiling)")
		gradNorm  = flag.Bool("grad-norm", false, "print HyLo per-epoch mode choices (artifact --grad-norm)")
		csvPath   = flag.String("csv", "", "write per-epoch stats to this CSV file")
		augment   = flag.Bool("augment", false, "random flip/crop augmentation on training batches")
		patience  = flag.Int("patience", 0, "early-stopping patience in epochs (0 = off)")
		clip      = flag.Float64("clip", 0, "max global gradient norm (0 = off)")

		tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto)")
		metricsPath = flag.String("metrics", "", "write Prometheus text-format metrics to this file")
		eventsPath  = flag.String("events", "", "write the compact JSONL span/event log to this file")
		teleSummary = flag.Bool("telemetry-summary", false, "print the top phase-time table at exit")

		ckptDir     = flag.String("checkpoint-dir", "", "write fault-tolerant checkpoints to this directory (enables elastic recovery)")
		ckptEvery   = flag.Int("checkpoint-every", 1, "epochs between checkpoints")
		resume      = flag.Bool("resume", false, "resume from the latest good checkpoint in -checkpoint-dir")
		faultInject = flag.String("fault-inject", "", "chaos spec, comma-separated: panic:RANK@STEP | bitflip:PROB | delay:PROB@DUR | degenerate:KIND@PROB with KIND dup|zero|huge (e.g. panic:1@40,degenerate:dup@0.5)")

		listen         = flag.String("listen", "", "coordinate a multi-process TCP cluster on this address (HOST:PORT or :PORT); -workers is the total rank count across all processes")
		join           = flag.String("join", "", "join a multi-process cluster at this coordinator address (comma-separated candidates are tried in order)")
		netRanks       = flag.Int("net-ranks", 1, "global ranks hosted by this process in -listen/-join mode")
		netFault       = flag.String("net-fault", "", "socket fault spec, comma-separated: drop:PROB | dup:PROB | reorder:PROB | delay:PROB@DUR | partition:AFTER@DUR (e.g. drop:0.1,reorder:0.05)")
		netTopology    = flag.String("net-topology", distnet.TopologyHub, "shape of the collectives' reduction tree in -listen/-join mode: hub (every member a child of the coordinator's process) or tree (binary tree by rank; interior members merge and forward); results are bit-identical; every process must pass the same value")
		netChunk       = flag.Int("net-chunk", 0, "chunk size, in float64 elements, that sum collectives are cut into on the wire in -listen/-join mode (0 = default 8192); every process must pass the same value")
		barrierTimeout = flag.Duration("barrier-timeout", 0, "convert a collective stuck longer than this into a recoverable worker failure (0 = watchdog off)")

		numReport = flag.Bool("numerics-report", false, "print the numerical-health summary (condition estimates, damping retries, fallback rungs) at exit")

		schedWorkers = flag.Int("sched-workers", runtime.GOMAXPROCS(0), "layer-parallel preconditioner workers (1 = legacy sequential path; results are bit-identical either way)")
		condLimit    = flag.Float64("cond-limit", numerics.DefaultCondLimit, "condition-estimate threshold beyond which solves escalate damping / fall back")
		idTol        = flag.Float64("id-tol", core.DefaultIDTol, "KID numerical-rank truncation tolerance, in [0, 1)")

		kidSketch     = flag.String("kid-sketch", "off", "randomized KID fast path for critical epochs: off | gauss | srht (unhealthy sketches fall back to the exact ID)")
		kidOversample = flag.Int("kid-oversample", core.DefaultOversample, "sketch width beyond the KID rank (randomized ID projects onto rank+oversample dimensions)")
	)
	flag.Parse()

	if err := cliutil.ValidateHyper(cliutil.Hyper{
		Epochs: *epochs, Batch: *batch, Workers: *workers, Freq: *freq,
		RankFrac: *rankFrac, Damping: *damping, CondLimit: *condLimit, IDTol: *idTol,
		KidSketch: *kidSketch, KidOversample: *kidOversample,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "hylo-train: %v\n", err)
		os.Exit(2)
	}
	if err := cliutil.ValidateSchedWorkers(*schedWorkers); err != nil {
		fmt.Fprintf(os.Stderr, "hylo-train: %v\n", err)
		os.Exit(2)
	}
	sched.SetWorkers(*schedWorkers)
	numerics.SetCondLimit(*condLimit)

	useTelemetry := *tracePath != "" || *metricsPath != "" || *eventsPath != "" || *teleSummary
	if useTelemetry {
		telemetry.SetEnabled(true)
	}

	decays, err := cliutil.ParseDecayEpochs(*decayAt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hylo-train: %v\n", err)
		os.Exit(2)
	}

	cfg := train.Config{
		Epochs: *epochs, BatchSize: *batch,
		LR:       opt.LRSchedule{Base: *lr, DecayAt: decays, Gamma: 0.1},
		Momentum: *momentum, WeightDecay: *wd,
		UpdateFreq: *freq, Damping: *damping, Seed: *seed,
		Adam:     *optimizer == "adam",
		Patience: *patience, MaxGradNorm: *clip,
	}

	wl, err := cliutil.BuildWorkload(*model, *classes, *samples, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hylo-train: %v\n", err)
		os.Exit(2)
	}
	if *augment {
		shape := wl.Train.Shape
		cfg.Augment = func(rng *mat.RNG) *data.Augmenter {
			return data.NewAugmenter(rng, shape, true, 2)
		}
	}
	sketch, _ := cliutil.ParseKidSketch(*kidSketch) // validated above
	pre, err := cliutil.PrecondFactory(*optimizer, cliutil.PrecondOpts{
		Damping: *damping, RankFrac: *rankFrac, Eta: *eta, IDTol: *idTol,
		KidSketch: sketch, KidOversample: *kidOversample,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hylo-train: %v\n", err)
		os.Exit(2)
	}

	plan, err := cliutil.ParseFaultSpec(*faultInject)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hylo-train: -fault-inject: %v\n", err)
		os.Exit(2)
	}
	if plan != nil {
		plan.Seed = *seed
	}
	if plan != nil && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "hylo-train: -fault-inject requires -checkpoint-dir (recovery needs somewhere to restore from)")
		os.Exit(2)
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "hylo-train: -resume requires -checkpoint-dir")
		os.Exit(2)
	}
	if err := cliutil.ValidateBarrierTimeout(*barrierTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "hylo-train: %v\n", err)
		os.Exit(2)
	}
	netOpt := netOpts{
		listen: *listen, join: *join, localRanks: *netRanks,
		world: *workers, netFault: *netFault, seed: *seed,
		topology: *netTopology, chunkElems: *netChunk,
		barrierTimeout: *barrierTimeout,
		ckptDir:        *ckptDir, ckptEvery: *ckptEvery, resume: *resume,
		faults: plan,
		// Topology and chunk size are digest fields: results are
		// bit-identical either way, but a mixed cluster would stall (tree
		// members wait on data-plane peers hub members never dial), so a
		// mismatch is rejected at rendezvous instead.
		digestFields: []string{
			*model, *optimizer, fmt.Sprint(*epochs), fmt.Sprint(*batch),
			fmt.Sprint(*workers), fmt.Sprint(*lr), *decayAt,
			fmt.Sprint(*momentum), fmt.Sprint(*wd), fmt.Sprint(*damping),
			fmt.Sprint(*freq), fmt.Sprint(*rankFrac), fmt.Sprint(*eta),
			fmt.Sprint(*seed), fmt.Sprint(*classes), fmt.Sprint(*samples),
			*netTopology, fmt.Sprint(*netChunk),
		},
	}
	if *listen != "" || *join != "" {
		if err := netOpt.validate(); err != nil {
			fmt.Fprintf(os.Stderr, "hylo-train: %v\n", err)
			os.Exit(2)
		}
	}

	// One driver for every launch shape; only where the ranks run differs.
	// A checkpointed run uses the in-process cluster even at one worker.
	job := wl.Job(cfg, pre)
	var res train.Result
	if *listen != "" || *join != "" {
		res, err = runNetCluster(netOpt, job)
	} else {
		cluster := train.Local()
		if *workers > 1 || *ckptDir != "" {
			c := dist.NewCluster(*workers)
			c.SetBarrierTimeout(*barrierTimeout)
			cluster = train.InProcess(c)
		}
		res, err = train.Drive(context.Background(), cluster, job, train.ElasticConfig{
			Dir: *ckptDir, Every: *ckptEvery, Resume: *resume, Faults: plan,
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hylo-train: %v\n", err)
		os.Exit(1)
	}

	if (*listen != "" || *join != "") && res.Method == "" {
		// A cluster process that does not host global rank 0 has no result
		// of its own; the coordinator process prints the shared metrics.
		fmt.Println("member run complete: metrics are reported by the process hosting rank 0")
	} else {
		fmt.Printf("model=%s optimizer=%s workers=%d\n", *model, res.Method, *workers)
		fmt.Printf("%-6s %-12s %-12s %-10s\n", "epoch", "train loss", "test metric", "elapsed")
		for _, st := range res.Stats {
			fmt.Printf("%-6d %-12.4f %-12.4f %-10.2fs\n",
				st.Epoch, st.TrainLoss, st.Metric, st.Elapsed.Seconds())
		}
		fmt.Printf("best metric: %.4f   state: %.2f MB\n", res.Best, float64(res.StateBytes)/(1<<20))
		if res.TimeToTarget > 0 {
			fmt.Printf("time-to-target(%.2f): %.2fs\n", wl.Target, res.TimeToTarget.Seconds())
		}
		if *gradNorm && len(res.EpochModes) > 0 {
			fmt.Printf("hylo per-epoch modes: %s\n", strings.Join(res.EpochModes, " "))
		}
		if *profiling {
			fmt.Println("\nphase breakdown (rank 0):")
			fmt.Print(res.Timeline.String())
		}
		if *csvPath != "" {
			if err := writeCSV(*csvPath, res); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if useTelemetry {
		if err := telemetry.ExportFiles(*tracePath, *metricsPath, *eventsPath); err != nil {
			fmt.Fprintf(os.Stderr, "hylo-train: %v\n", err)
			os.Exit(1)
		}
		if *teleSummary {
			fmt.Println("\ntelemetry phase summary (top 15):")
			telemetry.WriteSummary(os.Stdout,
				telemetry.Summarize(telemetry.Default().Trace.Events()), 15)
			telemetry.WriteNetSummary(os.Stdout, telemetry.Default().Metrics)
		}
	}
	if *numReport {
		fmt.Println()
		fmt.Print(numerics.Report())
	}
}

func writeCSV(path string, res train.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"epoch", "train_loss", "test_metric", "elapsed_s"}); err != nil {
		return err
	}
	for _, st := range res.Stats {
		if err := w.Write([]string{
			fmt.Sprint(st.Epoch),
			fmt.Sprintf("%.6f", st.TrainLoss),
			fmt.Sprintf("%.6f", st.Metric),
			fmt.Sprintf("%.3f", st.Elapsed.Seconds()),
		}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

package runner

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/dist"
	"repro/internal/opt"
	"repro/internal/serve/api"
	"repro/internal/train"
)

// Execute is the default ExecFunc: it maps a validated api.JobSpec onto the
// same building blocks the CLIs use — cliutil for workload and
// preconditioner construction, train.Drive for the run itself — so
// a job submitted over HTTP behaves bit-identically to the equivalent
// hylo-train invocation. The job's context flows into the training loop,
// which is what makes DELETE /v1/jobs/{id} end with a resumable
// checkpoint rather than a dead process.
func Execute(j *Job) (api.Result, error) {
	spec := j.Spec()
	switch spec.Kind {
	case api.KindBench:
		return execBench(j, spec)
	case api.KindTrain:
		return execTrain(j, spec)
	default:
		return api.Result{}, fmt.Errorf("runner: unknown job kind %q", spec.Kind)
	}
}

func execTrain(j *Job, spec api.JobSpec) (api.Result, error) {
	wl, err := cliutil.BuildWorkload(spec.Model, spec.Classes, spec.Samples, spec.Seed)
	if err != nil {
		return api.Result{}, err
	}
	pre, err := cliutil.PrecondFactory(spec.Optimizer, spec.PrecondOpts())
	if err != nil {
		return api.Result{}, err
	}
	cfg := train.Config{
		Epochs: spec.Epochs, BatchSize: spec.Batch,
		LR:       opt.LRSchedule{Base: spec.LR, Gamma: 0.1},
		Momentum: spec.Momentum, WeightDecay: spec.WeightDecay,
		UpdateFreq: spec.UpdateFreq, Damping: spec.Damping, Seed: spec.Seed,
		Adam:    spec.Optimizer == "adam",
		OnEpoch: j.recordEpoch,
	}
	ec := train.ElasticConfig{
		Dir:   j.CheckpointDir(),
		Every: spec.CheckpointEvery,
		// The job-level flag, not the spec: set for resume_from submissions
		// and armed by preemption and restart recovery, so every path that
		// continues from a snapshot funnels through the same elastic resume.
		Resume: j.resumeFlag(),
	}
	res, runErr := train.Drive(j.Context(), train.InProcess(dist.NewCluster(spec.Workers)),
		wl.Job(cfg, pre), ec)
	out := api.Result{
		Method:     res.Method,
		Best:       res.Best,
		FinalLoss:  res.FinalLoss,
		StateBytes: res.StateBytes,
		EpochModes: res.EpochModes,
	}
	for _, st := range res.Stats {
		out.Epochs = append(out.Epochs, api.EpochRecord{
			Epoch: st.Epoch, TrainLoss: st.TrainLoss,
			Metric: st.Metric, ElapsedS: st.Elapsed.Seconds(),
		})
	}
	// A cancelled run still returns its partial result: the runner stores
	// it so GET /v1/jobs/{id}/result shows where the checkpoint stands.
	return out, runErr
}

func execBench(j *Job, spec api.JobSpec) (api.Result, error) {
	// Bench experiments have no epoch-granular cancellation point; honor a
	// cancel that lands before the run starts, then run to completion.
	select {
	case <-j.Context().Done():
		return api.Result{}, j.Context().Err()
	default:
	}
	e, ok := bench.Lookup(spec.Experiment)
	if !ok {
		return api.Result{}, fmt.Errorf("runner: unknown experiment %q", spec.Experiment)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 42
	}
	t := e.Run(bench.RunConfig{Quick: spec.Quick, Seed: seed,
		KidSketch: spec.KidSketch, KidOversample: spec.KidOversample})
	return api.Result{
		TableID:      t.ID,
		TableHeaders: t.Headers,
		TableRows:    t.Rows,
	}, nil
}

package cliutil

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/train"
)

// Spec is the one description of a training run. hylo-train binds its
// flags onto a Spec and the hylo-serve job API carries one per train job
// under the same JSON names, so both front ends share DefaultSpec's
// defaults, Validate's rules and Job's mapping onto a train.Job.
type Spec struct {
	Model       string  `json:"model,omitempty"`
	Optimizer   string  `json:"optimizer,omitempty"`
	Epochs      int     `json:"epochs,omitempty"`
	Batch       int     `json:"batch,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	LR          float64 `json:"lr,omitempty"`
	Momentum    float64 `json:"momentum,omitempty"`
	WeightDecay float64 `json:"weight_decay,omitempty"`
	UpdateFreq  int     `json:"update_freq,omitempty"`
	Damping     float64 `json:"damping,omitempty"`
	RankFrac    float64 `json:"rank_frac,omitempty"`
	Eta         float64 `json:"eta,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	Classes     int     `json:"classes,omitempty"`
	Samples     int     `json:"samples,omitempty"`
	// IDTol is the KID numerical-rank tolerance; 0 disables truncation.
	IDTol float64 `json:"id_tol,omitempty"`
	// KidSketch selects the randomized KID fast path: "off", "gauss" or
	// "srht"; KidOversample is the sketch width beyond the KID rank.
	KidSketch     string `json:"kid_sketch,omitempty"`
	KidOversample int    `json:"kid_oversample,omitempty"`
	// CheckpointEvery is the checkpoint cadence in epochs.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// DefaultSpec is the run a flagless hylo-train and an empty job spec
// describe — ten epochs of HyLo on the 3c1f workload — and the only place
// a default is written.
func DefaultSpec() Spec {
	return Spec{
		Model: "3c1f", Optimizer: "hylo", Epochs: 10, Batch: 32, Workers: 1,
		LR: 0.03, Momentum: 0.9, UpdateFreq: 5, Damping: 0.1, RankFrac: 0.1, Eta: 0.25,
		Seed: 42, Classes: 8, Samples: 64, IDTol: core.DefaultIDTol,
		KidSketch: "off", KidOversample: core.DefaultOversample, CheckpointEvery: 1,
	}
}

// Normalize fills every zero field from DefaultSpec: the job API's rule
// that an omitted field means the default. (The CLI never normalizes, so
// there -id-tol 0 keeps meaning "truncation off".)
func (s *Spec) Normalize() {
	v, d := reflect.ValueOf(s).Elem(), reflect.ValueOf(DefaultSpec())
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			v.Field(i).Set(d.Field(i))
		}
	}
}

// Validate rejects values that would otherwise fail in confusing ways
// downstream: empty epochs or shards, a rank fraction rounding every
// kernel to nothing, a NaN or infinity. Messages use the CLI flag
// spelling; the job API returns the same text.
func (s Spec) Validate() error {
	for _, c := range []struct {
		flag string
		n    int
	}{{"epochs", s.Epochs}, {"batch", s.Batch}, {"workers", s.Workers},
		{"freq", s.UpdateFreq}, {"classes", s.Classes}, {"samples", s.Samples}} {
		if c.n <= 0 {
			return fmt.Errorf("-%s must be positive (got %d)", c.flag, c.n)
		}
	}
	// Each range is stated as what is accepted, so NaN, which fails every
	// comparison, is rejected.
	finite := func(v float64) bool { return !math.IsInf(v, 0) }
	switch {
	case !(s.LR > 0 && finite(s.LR)):
		return fmt.Errorf("-lr must be positive and finite (got %g)", s.LR)
	case !(s.Momentum >= 0 && s.Momentum < 1):
		return fmt.Errorf("-momentum must be in [0, 1) (got %g)", s.Momentum)
	case !(s.WeightDecay >= 0 && finite(s.WeightDecay)):
		return fmt.Errorf("-weight-decay must be >= 0 and finite (got %g)", s.WeightDecay)
	case !core.ValidDamping(s.Damping):
		return fmt.Errorf("-damping must be positive and finite (got %g)", s.Damping)
	case !(s.RankFrac > 0 && s.RankFrac <= 1):
		return fmt.Errorf("-rank-frac must be in (0, 1] (got %g)", s.RankFrac)
	case !(s.Eta >= 0 && finite(s.Eta)):
		return fmt.Errorf("-eta must be >= 0 and finite (got %g)", s.Eta)
	case !(s.IDTol >= 0 && s.IDTol < 1):
		return fmt.Errorf("-id-tol must be in [0, 1) (got %g)", s.IDTol)
	}
	if _, err := ParseKidSketch(s.KidSketch); err != nil {
		return err
	}
	if err := ValidateKidOversample(s.KidOversample); err != nil {
		return err
	}
	if !slices.Contains(Models(), s.Model) {
		return fmt.Errorf("unknown model %q (want one of %v)", s.Model, Models())
	}
	_, err := PrecondFactory(s.Optimizer, PrecondOpts{})
	return err
}

// PrecondOpts is the preconditioner part of a validated Spec (a kid_sketch
// Validate would reject maps to off).
func (s Spec) PrecondOpts() PrecondOpts {
	sketch, _ := ParseKidSketch(s.KidSketch)
	return PrecondOpts{Damping: s.Damping, RankFrac: s.RankFrac, Eta: s.Eta, IDTol: s.IDTol,
		KidSketch: sketch, KidOversample: s.KidOversample}
}

// Job maps a validated Spec onto the train.Job every front end runs: the
// named workload, the optimizer's preconditioner factory and the training
// Config. What a Spec does not describe — LR decay epochs, early stopping,
// clipping, augmentation, the per-epoch hook — the caller sets on
// Job.Config.
func (s Spec) Job() (train.Job, error) {
	job, err := BuildWorkload(s.Model, s.Classes, s.Samples, s.Seed)
	if err != nil {
		return train.Job{}, err
	}
	if job.Precond, err = PrecondFactory(s.Optimizer, s.PrecondOpts()); err != nil {
		return train.Job{}, err
	}
	job.Config = train.Config{
		Epochs: s.Epochs, BatchSize: s.Batch,
		LR:       opt.LRSchedule{Base: s.LR, Gamma: 0.1},
		Momentum: s.Momentum, WeightDecay: s.WeightDecay,
		UpdateFreq: s.UpdateFreq, Damping: s.Damping, Seed: s.Seed,
		Adam: s.Optimizer == "adam",
	}
	return job, nil
}

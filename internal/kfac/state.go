package kfac

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mat"
)

// Checkpoint persistence for KFAC. Implements the ckpt.StateSaver contract
// structurally, so this package never imports ckpt.
//
// The running Kronecker factors are exponential moving averages — they
// cannot be rebuilt from a single post-restore batch, so losing them
// degrades curvature estimates for many update intervals. Under the
// memory-optimized KAISA placement only the owning rank holds a layer's
// running factors, which is why KFAC state lives in the checkpoint's
// per-rank sections rather than a shared one. The inverses are saved too:
// between update iterations Precondition applies the stored inverses, so
// a resumed step between refreshes must see identical second-order state.

// StateKey identifies KFAC's checkpoint section.
func (k *KFAC) StateKey() string { return "precond/kfac" }

// AppendState appends the damping and, per layer, whether it is
// initialized and its running factors and inverses (a nil one as 0×0).
func (k *KFAC) AppendState(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(mat.AppendF64(b, k.Damping), uint32(len(k.state)))
	for _, s := range k.state {
		b = mat.AppendBool(b, s.initialized)
		for _, m := range []*mat.Dense{s.aFactor, s.gFactor, s.aInv, s.gInv} {
			b = mat.AppendMat(b, m)
		}
	}
	return b
}

// LoadState restores this rank's factors and inverses. The layer count
// must match the current network.
func (k *KFAC) LoadState(b []byte) error {
	r := mat.NewReader(b)
	damping := r.F64()
	if n := r.U32(); r.Err() == nil && int(n) != len(k.state) {
		return fmt.Errorf("kfac: snapshot has %d layers, network has %d", n, len(k.state))
	}
	for _, s := range k.state {
		s.initialized = r.U8() != 0
		s.aFactor, s.gFactor, s.aInv, s.gInv = r.Mat(), r.Mat(), r.Mat(), r.Mat()
	}
	if r.Err() == nil {
		k.Damping = damping
	}
	return r.Err()
}

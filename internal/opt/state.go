package opt

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mat"
)

// Checkpoint persistence for the first-order optimizers. Both implement
// the ckpt.StateSaver contract structurally (StateKey / AppendState /
// LoadState), so this package never imports ckpt. Momentum and moment
// buffers are training state — dropping them across a restore would
// restart the update dynamics cold and break deterministic resume.

// StateKey identifies SGD's checkpoint section.
func (s *SGD) StateKey() string { return "opt/sgd" }

// AppendState appends the learning rate and the momentum buffers.
func (s *SGD) AppendState(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(mat.AppendF64(b, s.lr), uint32(len(s.vel)))
	for _, v := range s.vel {
		b = mat.AppendVec(b, v.v)
	}
	return b
}

// LoadState restores the learning rate and momentum buffers. The buffer
// shapes must match the current parameter set (same model architecture).
func (s *SGD) LoadState(b []byte) error {
	r := mat.NewReader(b)
	lr := r.F64()
	if n := r.U32(); r.Err() == nil && int(n) != len(s.vel) {
		return fmt.Errorf("opt: sgd snapshot has %d velocity buffers, model has %d", n, len(s.vel))
	}
	for _, v := range s.vel {
		r.VecInto(v.v)
	}
	if r.Err() == nil {
		s.lr = lr
	}
	return r.Err()
}

// StateKey identifies Adam's checkpoint section.
func (a *Adam) StateKey() string { return "opt/adam" }

// AppendState appends the learning rate, the step count and both moment
// buffers (the step count drives bias correction, so it must survive a
// restore).
func (a *Adam) AppendState(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(mat.AppendF64(b, a.lr), uint64(a.step))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(a.m)))
	for i := range a.m {
		b = mat.AppendVec(mat.AppendVec(b, a.m[i]), a.v[i])
	}
	return b
}

// LoadState restores the learning rate, step count and moment buffers.
func (a *Adam) LoadState(b []byte) error {
	r := mat.NewReader(b)
	lr, step := r.F64(), int(r.U64())
	if n := r.U32(); r.Err() == nil && int(n) != len(a.m) {
		return fmt.Errorf("opt: adam snapshot has %d moment buffers, model has %d", n, len(a.m))
	}
	for i := range a.m {
		r.VecInto(a.m[i])
		r.VecInto(a.v[i])
	}
	if r.Err() == nil {
		a.lr, a.step = lr, step
	}
	return r.Err()
}

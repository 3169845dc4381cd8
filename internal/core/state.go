package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mat"
)

// Checkpoint persistence for HyLo. Implements the ckpt.StateSaver contract
// structurally, so this package never imports ckpt.
//
// What must survive a restore for deterministic resume:
//   - the switching state (mode, Δₑ accumulators, ‖Δ‖ history, the policy
//     RNG): the gradient-norm heuristic (Eq. 10) compares consecutive
//     epochs, so losing Δₑ₋₁/Δₑ₋₂ changes every subsequent mode decision;
//   - the gathered factors as/gs and the inverse M of each layer: between
//     update iterations Precondition reuses them, so a resumed step that
//     lands between refreshes must see the same second-order state;
//   - the adapted damping α.
//
// What deliberately is NOT saved: the sampling RNG (h.rng) — the trainer
// owns it and checkpoints it as part of the per-rank RNG section (HyLo
// only borrows the pointer), and the workspaces (an/gn/…), which are
// scratch rebuilt on the next Update.

// StateKey identifies HyLo's checkpoint section.
func (h *HyLo) StateKey() string { return "precond/hylo" }

// AppendState appends the switching state, damping, and per-layer
// gathered factors.
func (h *HyLo) AppendState(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(mat.AppendF64(b, h.Damping), uint64(h.mode))
	b = binary.LittleEndian.AppendUint32(mat.AppendVec(b, h.prevNorms), uint32(len(h.epochModes)))
	for _, m := range h.epochModes {
		b = append(b, byte(m))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h.state)))
	for i, s := range h.state {
		b = s.AppendState(mat.AppendVec(b, h.delta[i]))
	}
	return h.policyRNG.AppendState(b)
}

// LoadState restores the switching state and per-layer factors. The layer
// count must match the current network.
func (h *HyLo) LoadState(b []byte) error {
	r := mat.NewReader(b)
	damping, mode, prevNorms := r.F64(), Mode(r.U64()), r.Vec()
	modes := r.Take(int(r.U32()))
	if n := r.U32(); r.Err() == nil && int(n) != len(h.state) {
		return fmt.Errorf("core: hylo snapshot has %d layers, network has %d", n, len(h.state))
	}
	for i, s := range h.state {
		r.VecInto(h.delta[i])
		s.ReadState(r)
	}
	if h.policyRNG.ReadState(r); r.Err() != nil {
		return r.Err()
	}
	h.Damping, h.mode, h.prevNorms = damping, mode, prevNorms
	h.epochModes = h.epochModes[:0]
	for _, m := range modes {
		h.epochModes = append(h.epochModes, Mode(m))
	}
	return nil
}

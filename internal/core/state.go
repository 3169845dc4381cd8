package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/mat"
	"repro/internal/precond"
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

type hyloPersist struct {
	Damping    float64
	Mode       int
	Delta      [][]float64
	PrevNorms  []float64
	EpochModes []int
	PolicyRNG  mat.RNGState
	Layers     []precond.KernelState
}

// StateKey identifies HyLo's checkpoint section.
func (h *HyLo) StateKey() string { return "precond/hylo" }

// SaveState serializes the switching state, damping, and per-layer
// gathered factors.
func (h *HyLo) SaveState() ([]byte, error) {
	st := hyloPersist{
		Damping:   h.Damping,
		Mode:      int(h.mode),
		Delta:     make([][]float64, len(h.delta)),
		PrevNorms: append([]float64(nil), h.prevNorms...),
		PolicyRNG: h.policyRNG.State(),
		Layers:    make([]precond.KernelState, len(h.state)),
	}
	for i, d := range h.delta {
		st.Delta[i] = append([]float64(nil), d...)
	}
	st.EpochModes = make([]int, len(h.epochModes))
	for i, m := range h.epochModes {
		st.EpochModes[i] = int(m)
	}
	for i, s := range h.state {
		st.Layers[i] = s.Capture()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadState restores the switching state and per-layer factors. The layer
// count must match the current network.
func (h *HyLo) LoadState(b []byte) error {
	var st hyloPersist
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	if len(st.Layers) != len(h.state) || len(st.Delta) != len(h.delta) {
		return fmt.Errorf("core: hylo snapshot has %d layers, network has %d", len(st.Layers), len(h.state))
	}
	for i, d := range st.Delta {
		if len(d) != len(h.delta[i]) {
			return fmt.Errorf("core: hylo delta %d has %d elements, layer has %d", i, len(d), len(h.delta[i]))
		}
	}
	h.Damping = st.Damping
	h.mode = Mode(st.Mode)
	for i, d := range st.Delta {
		copy(h.delta[i], d)
	}
	h.prevNorms = append(h.prevNorms[:0], st.PrevNorms...)
	h.epochModes = h.epochModes[:0]
	for _, m := range st.EpochModes {
		h.epochModes = append(h.epochModes, Mode(m))
	}
	h.policyRNG.SetState(st.PolicyRNG)
	for i, l := range st.Layers {
		h.state[i].Restore(l)
	}
	return nil
}

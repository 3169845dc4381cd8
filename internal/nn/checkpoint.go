package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// checkpoint is the on-disk format: named parameter tensors.
type checkpoint struct {
	Names []string
	Rows  []int
	Cols  []int
	Data  [][]float64
}

// SaveCheckpoint writes every parameter of the network to w (gob-encoded).
func (n *Network) SaveCheckpoint(w io.Writer) error {
	var ck checkpoint
	for _, p := range n.Params() {
		ck.Names = append(ck.Names, p.Name)
		ck.Rows = append(ck.Rows, p.W.Rows())
		ck.Cols = append(ck.Cols, p.W.Cols())
		d := make([]float64, len(p.W.Data()))
		copy(d, p.W.Data())
		ck.Data = append(ck.Data, d)
	}
	return gob.NewEncoder(w).Encode(ck)
}

// LoadCheckpoint restores parameters written by SaveCheckpoint into a
// network with the identical architecture; names and shapes must match
// exactly.
func (n *Network) LoadCheckpoint(r io.Reader) error {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return fmt.Errorf("nn: decode checkpoint: %w", err)
	}
	params := n.Params()
	if len(params) != len(ck.Names) {
		return fmt.Errorf("nn: checkpoint has %d params, network has %d", len(ck.Names), len(params))
	}
	for i, p := range params {
		if p.Name != ck.Names[i] {
			return fmt.Errorf("nn: param %d name %q != checkpoint %q", i, p.Name, ck.Names[i])
		}
		if p.W.Rows() != ck.Rows[i] || p.W.Cols() != ck.Cols[i] {
			return fmt.Errorf("nn: param %q shape %dx%d != checkpoint %dx%d",
				p.Name, p.W.Rows(), p.W.Cols(), ck.Rows[i], ck.Cols[i])
		}
		copy(p.W.Data(), ck.Data[i])
	}
	return nil
}

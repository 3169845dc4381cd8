package nn

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mat"
)

// StateKey names the weights' checkpoint section.
func (n *Network) StateKey() string { return "nn/weights" }

// AppendState appends every parameter of the network: the count, then per
// parameter its name (u32 length-prefixed) and its weights (mat.AppendMat).
func (n *Network) AppendState(b []byte) []byte {
	params := n.Params()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(params)))
	for _, p := range params {
		b = mat.AppendMat(append(binary.LittleEndian.AppendUint32(b, uint32(len(p.Name))), p.Name...), p.W)
	}
	return b
}

// LoadState restores parameters written by AppendState into a network
// with the identical architecture; names and shapes must match exactly.
func (n *Network) LoadState(b []byte) error {
	r := mat.NewReader(b)
	params := n.Params()
	if c := r.U32(); r.Err() == nil && int(c) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, network has %d", c, len(params))
	}
	for i, p := range params {
		name := string(r.Take(int(r.U32())))
		rows, cols := int(r.U32()), int(r.U32())
		if r.Err() != nil {
			break
		}
		if p.Name != name {
			return fmt.Errorf("nn: param %d name %q != checkpoint %q", i, p.Name, name)
		}
		if p.W.Rows() != rows || p.W.Cols() != cols {
			return fmt.Errorf("nn: param %q shape %dx%d != checkpoint %dx%d",
				p.Name, p.W.Rows(), p.W.Cols(), rows, cols)
		}
		if raw := r.Take(8 * rows * cols); raw != nil {
			mat.ReadFloats(p.W.Data(), raw)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("nn: decode checkpoint: %w", err)
	}
	return nil
}

package mat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// The byte codec shared by checkpoints and the TCP wire: little-endian
// fixed-width integers, float64s as their IEEE bits, matrices as their
// shape and row-major bits, and a bounds-checked Reader that records a
// failure instead of panicking on malformed input.

// ErrTruncated is recorded by a Reader asked for more bytes than remain.
var ErrTruncated = errors.New("mat: truncated encoding")

// Reader is a cursor over an encoding. The first failure sticks: every
// later read returns a zero value, and Err reports it.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err reports the first failure, or nil while every read fit.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an earlier failure is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Len is the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Take returns the next n bytes, aliasing the input.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.err = ErrTruncated
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// U8, U16, U32 and U64 read little-endian unsigned integers.
func (r *Reader) U8() byte    { return r.fixed(1)[0] }
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// fixed is Take for the integer reads: after a failure, n zero bytes.
func (r *Reader) fixed(n int) []byte {
	if b := r.Take(n); b != nil {
		return b
	}
	return zeros[:n]
}

var zeros [8]byte

// F64 reads one float64 written by AppendF64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendF64 appends v's IEEE bits.
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendFloats appends the IEEE bits of every element of f (no count).
func AppendFloats(dst []byte, f []float64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(f))[:n+8*len(f)]
	for i, v := range f {
		binary.LittleEndian.PutUint64(dst[n+8*i:], math.Float64bits(v))
	}
	return dst
}

// ReadFloats fills dst from little-endian float64 bits; raw holds at
// least 8·len(dst) bytes.
func ReadFloats(dst []float64, raw []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}

// AppendVec appends f as a u32 element count and its bits.
func AppendVec(dst []byte, f []float64) []byte {
	return AppendFloats(binary.LittleEndian.AppendUint32(dst, uint32(len(f))), f)
}

// VecInto reads a vector written by AppendVec into dst, failing unless it
// has exactly len(dst) elements.
func (r *Reader) VecInto(dst []float64) {
	if n := r.U32(); r.err == nil && int(n) != len(dst) {
		r.Fail(fmt.Errorf("mat: encoded vector has %d elements, want %d", n, len(dst)))
	}
	if raw := r.Take(8 * len(dst)); raw != nil {
		ReadFloats(dst, raw)
	}
}

// Vec reads a vector written by AppendVec into a new slice.
func (r *Reader) Vec() []float64 {
	raw := r.Take(8 * int(r.U32()))
	out := make([]float64, len(raw)/8)
	ReadFloats(out, raw)
	return out
}

// AppendMat appends m's shape (rows, cols as u32) and its row-major bits;
// a nil m is written as 0×0.
func AppendMat(dst []byte, m *Dense) []byte {
	if m == nil {
		return binary.LittleEndian.AppendUint64(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.rows))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.cols))
	return AppendFloats(dst, m.data)
}

// Mat reads a matrix written by AppendMat into a new Dense; 0×0 reads back
// as nil, the encoding of a nil matrix.
func (r *Reader) Mat() *Dense {
	rows, cols := uint64(r.U32()), uint64(r.U32())
	if r.err != nil || rows|cols == 0 {
		return nil
	}
	if rows*cols > uint64(r.Len()/8) {
		r.Fail(ErrTruncated)
		return nil
	}
	m := NewDense(int(rows), int(cols))
	ReadFloats(m.data, r.Take(8*len(m.data)))
	return m
}

// AppendState appends the generator's state — the state word, the spare
// flag and the spare's bits — so a checkpoint resumes every stochastic
// stream (batch order, KIS sampling, augmentation) bit-exactly.
func (r *RNG) AppendState(b []byte) []byte {
	return AppendF64(AppendBool(binary.LittleEndian.AppendUint64(b, r.state), r.hasSpare), r.spare)
}

// ReadState rewinds the generator to a state written by AppendState, or
// leaves it as it is if rd fails reading one.
func (r *RNG) ReadState(rd *Reader) {
	state, hasSpare, spare := rd.U64(), rd.U8() != 0, rd.F64()
	if rd.Err() == nil {
		r.state, r.hasSpare, r.spare = state, hasSpare, spare
	}
}

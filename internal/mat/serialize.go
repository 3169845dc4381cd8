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
	rows, cols, raw := r.mat()
	if r.err != nil {
		return nil
	}
	return newMat(rows, cols, raw)
}

// mat reads AppendMat's shape and returns it with the raw bits.
func (r *Reader) mat() (rows, cols int, raw []byte) {
	rs, cs := uint64(r.U32()), uint64(r.U32())
	if rs*cs > uint64(r.Len()/8) {
		r.Fail(ErrTruncated)
	}
	return int(rs), int(cs), r.Take(8 * int(rs*cs))
}

// newMat decodes raw into a new rows×cols Dense, nil for 0×0.
func newMat(rows, cols int, raw []byte) *Dense {
	if rows|cols == 0 {
		return nil
	}
	m := NewDense(rows, cols)
	ReadFloats(m.data, raw)
	return m
}

// Fields is one encoding written as a list: a saver's checkpoint state,
// built once by the saver, or a wire message's fields. It holds pointers
// to the fields a restore must bring back, in encoding order, plus the
// counts and names a load must find. A field the saver reallocates is
// listed by pointer; a slice header held by value would go stale. The
// kinds and their encodings:
//
//	*float64      its IEEE bits
//	*int          a u64
//	*uint16, *uint32, *uint64
//	              as is
//	*bool         one byte, 0 or 1
//	[]float64     AppendVec, decoded in place; the length must match
//	*[]float64    AppendVec, replaced (no elements read back as nil)
//	*[][]float64  a u32 count, then AppendVec each; replaced
//	[]int         a u32 count, then each element as a u32; decoded in
//	              place, the count must match
//	*[]byte       a u32 count and the bytes; replaced
//	*string       a u32 length and the bytes; replaced
//	*[]uint32     a u32 count, then each element; replaced
//	*Dense        AppendMat, decoded in place; the shape must match
//	**Dense       AppendMat, replaced (nil ⇄ 0×0)
//	*RNG          the state word, the spare flag and the spare's bits
//	uint32        written as is; a load must find the same value
//	string        a u32 length and the bytes; a load must find the same
//
// Any other kind panics on first use.
type Fields []any

// Section is one checkpoint section: its key and the list of the state it
// holds. Embedded in a component that fills both once, it makes the
// component a ckpt.StateSaver.
type Section struct {
	Key   string
	State Fields
	// Check, if set, vets the loaded state where the kinds cannot: a
	// replaced field's length or shape, an index's range. A load it
	// rejects is undone.
	Check func() error
}

// StateKey names the section.
func (s *Section) StateKey() string { return s.Key }

// StateBytes is the length of the section's encoded state: what its
// checkpoint holds (Table IV's measured column).
func (s *Section) StateBytes() int { return s.State.Len() }

// AppendState appends the section's state.
func (s *Section) AppendState(b []byte) []byte { return s.State.Append(b) }

// LoadState restores all of the section's state, or on an error none of
// it: a load Check rejects is undone from the state's prior encoding.
func (s *Section) LoadState(b []byte) error {
	var old []byte
	if s.Check != nil {
		old = s.State.Append(nil)
	}
	err := s.State.Load(b)
	if err == nil && s.Check != nil {
		if err = s.Check(); err != nil {
			_ = s.State.Load(old)
		}
	}
	return err
}

// Append appends every field in list order.
func (fs Fields) Append(b []byte) []byte {
	le := binary.LittleEndian
	for _, f := range fs {
		switch v := f.(type) {
		case *float64:
			b = AppendF64(b, *v)
		case *int:
			b = le.AppendUint64(b, uint64(*v))
		case *uint16:
			b = le.AppendUint16(b, *v)
		case *uint32:
			b = le.AppendUint32(b, *v)
		case *uint64:
			b = le.AppendUint64(b, *v)
		case *bool:
			b = AppendBool(b, *v)
		case []float64:
			b = AppendVec(b, v)
		case *[]float64:
			b = AppendVec(b, *v)
		case *[][]float64:
			b = le.AppendUint32(b, uint32(len(*v)))
			for _, x := range *v {
				b = AppendVec(b, x)
			}
		case []int:
			b = le.AppendUint32(b, uint32(len(v)))
			for _, x := range v {
				b = le.AppendUint32(b, uint32(x))
			}
		case *[]byte:
			b = append(le.AppendUint32(b, uint32(len(*v))), *v...)
		case *string:
			b = append(le.AppendUint32(b, uint32(len(*v))), *v...)
		case *[]uint32:
			b = le.AppendUint32(b, uint32(len(*v)))
			for _, x := range *v {
				b = le.AppendUint32(b, x)
			}
		case *Dense:
			b = AppendMat(b, v)
		case **Dense:
			b = AppendMat(b, *v)
		case *RNG:
			b = AppendF64(AppendBool(le.AppendUint64(b, v.state), v.hasSpare), v.spare)
		case uint32:
			b = le.AppendUint32(b, v)
		case string:
			b = append(le.AppendUint32(b, uint32(len(v))), v...)
		default:
			panic(fmt.Sprintf("mat: Fields cannot encode %T", f))
		}
	}
	return b
}

// Len is the length of Append's encoding, walked without allocating.
func (fs Fields) Len() int {
	n := 0
	for _, f := range fs {
		switch v := f.(type) {
		case *float64, *int, *uint64:
			n += 8
		case *uint16:
			n += 2
		case *uint32, uint32:
			n += 4
		case *bool:
			n++
		case []float64:
			n += 4 + 8*len(v)
		case *[]float64:
			n += 4 + 8*len(*v)
		case *[][]float64:
			n += 4
			for _, x := range *v {
				n += 4 + 8*len(x)
			}
		case []int:
			n += 4 + 4*len(v)
		case *[]byte:
			n += 4 + len(*v)
		case *string:
			n += 4 + len(*v)
		case *[]uint32:
			n += 4 + 4*len(*v)
		case *Dense:
			n += 8 + 8*len(v.data)
		case **Dense:
			n += 8
			if *v != nil {
				n += 8 * len((*v).data)
			}
		case *RNG:
			n += 17
		case string:
			n += 4 + len(v)
		default:
			panic(fmt.Sprintf("mat: Fields cannot measure %T", f))
		}
	}
	return n
}

// Load restores the fields from b, which must hold exactly what Append
// wrote for a list built the same way. The first pass reads and checks
// every length, shape, count and name without assigning; only when all of
// b fits does the second assign. So a load that fails leaves every field
// as it was.
func (fs Fields) Load(b []byte) error {
	if err := fs.load(b, false); err != nil {
		return err
	}
	return fs.load(b, true)
}

// load walks b against the list, assigning only when set.
func (fs Fields) load(b []byte, set bool) error {
	r := NewReader(b)
	for i, f := range fs {
		switch v := f.(type) {
		case *float64:
			if x := r.F64(); set {
				*v = x
			}
		case *int:
			if x := int(r.U64()); set {
				*v = x
			}
		case *uint16:
			if x := r.U16(); set {
				*v = x
			}
		case *uint32:
			if x := r.U32(); set {
				*v = x
			}
		case *uint64:
			if x := r.U64(); set {
				*v = x
			}
		case *bool:
			if x := r.bool(); set {
				*v = x
			}
		case []float64:
			if raw := r.floats(len(v)); set {
				ReadFloats(v, raw)
			}
		case *[]float64:
			if x := r.floats(-1); set {
				*v = newFloats(x)
			}
		case *[][]float64:
			var x [][]float64
			for n := r.count(-1); n > 0 && r.err == nil; n-- {
				if raw := r.floats(-1); set {
					x = append(x, newFloats(raw))
				}
			}
			if set {
				*v = x
			}
		case []int:
			if raw := r.Take(4 * int(r.count(len(v)))); set {
				for j := range v {
					v[j] = int(binary.LittleEndian.Uint32(raw[4*j:]))
				}
			}
		case *[]byte:
			if x := r.Take(int(r.count(-1))); set {
				*v = append([]byte(nil), x...)
			}
		case *string:
			if x := r.Take(int(r.count(-1))); set {
				*v = string(x)
			}
		case *[]uint32:
			n := r.count(-1)
			if uint64(n) > uint64(r.Len()/4) {
				r.Fail(ErrTruncated)
			}
			if raw := r.Take(4 * int(n)); set {
				*v = nil
				if n > 0 {
					*v = make([]uint32, n)
				}
				for j := range *v {
					(*v)[j] = binary.LittleEndian.Uint32(raw[4*j:])
				}
			}
		case *Dense:
			rows, cols, raw := r.mat()
			if r.err == nil && (rows != v.rows || cols != v.cols) {
				r.Fail(fmt.Errorf("mat: encoded matrix is %d×%d, want %d×%d", rows, cols, v.rows, v.cols))
			}
			if set {
				ReadFloats(v.data, raw)
			}
		case **Dense:
			if rows, cols, raw := r.mat(); set {
				*v = newMat(rows, cols, raw)
			}
		case *RNG:
			state, hasSpare, spare := r.U64(), r.bool(), r.F64()
			if set {
				v.state, v.hasSpare, v.spare = state, hasSpare, spare
			}
		case uint32:
			r.count(int(v))
		case string:
			if x := r.Take(int(r.U32())); r.err == nil && string(x) != v {
				r.Fail(fmt.Errorf("mat: encoded name %q, want %q", x, v))
			}
		default:
			panic(fmt.Sprintf("mat: Fields cannot decode %T", f))
		}
		if r.err != nil {
			return fmt.Errorf("field %d (%T): %w", i, f, r.err)
		}
	}
	if r.Len() > 0 {
		return fmt.Errorf("mat: %d bytes after the last field", r.Len())
	}
	return nil
}

// bool reads AppendBool's byte, failing on any but 0 and 1.
func (r *Reader) bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail(fmt.Errorf("mat: encoded bool is %d", v))
	}
	return v == 1
}

// count reads a u32 count, failing unless it equals want when want ≥ 0.
func (r *Reader) count(want int) uint32 {
	n := r.U32()
	if r.err == nil && want >= 0 && int(n) != want {
		r.Fail(fmt.Errorf("mat: encoded count %d, want %d", n, want))
	}
	return n
}

// floats reads AppendVec's encoding of want elements (any number when
// want < 0) and returns the raw bits.
func (r *Reader) floats(want int) []byte {
	n := r.count(want)
	if uint64(n) > uint64(r.Len()/8) {
		r.Fail(ErrTruncated)
	}
	return r.Take(8 * int(n))
}

// newFloats decodes raw float64 bits into a new slice, nil for none.
func newFloats(raw []byte) []float64 {
	if len(raw) == 0 {
		return nil
	}
	out := make([]float64, len(raw)/8)
	ReadFloats(out, raw)
	return out
}

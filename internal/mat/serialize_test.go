package mat

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// everyKind is a Fields list holding one field of every kind, filled with
// state that depends on seed.
func everyKind(seed uint64) Fields {
	rng := NewRNG(seed)
	f, i, b := rng.Norm(), int(seed), seed%2 == 1
	vec, pv := []float64{rng.Norm(), rng.Norm(), rng.Norm()}, []float64{rng.Norm()}
	pairs := [][]float64{{rng.Norm()}, {rng.Norm(), rng.Norm()}}
	ints, bs := rng.Perm(4), []byte{byte(seed), 1, 2}
	d, pd := RandN(rng, 2, 3, 1), RandN(rng, 1, 2, 1)
	u16, u32, u64 := uint16(seed*3), uint32(seed*5), seed<<40|seed
	str, us := "s"+string(rune('a'+seed%26)), []uint32{uint32(seed), 9}
	rng.Norm() // leaves a spare normal behind
	return Fields{&f, &i, &b, vec, &pv, &pairs, ints, &bs, d, &pd, rng,
		&u16, &u32, &u64, &str, &us, uint32(7), "name"}
}

// TestFieldsRoundTrip: a load of what Append wrote reproduces it, nil and
// empty replaced fields included.
func TestFieldsRoundTrip(t *testing.T) {
	src, dst := everyKind(1), everyKind(2)
	b := src.Append(nil)
	if err := dst.Load(b); err != nil {
		t.Fatal(err)
	}
	if got := dst.Append(nil); !bytes.Equal(got, b) {
		t.Fatal("round trip changed the encoding")
	}
	pv, pairs, pd, us, str := []float64{1}, [][]float64{{1}}, NewDense(1, 1), []uint32{1}, "x"
	empty := Fields{new([]float64), new([][]float64), new(*Dense), new([]uint32), new(string)}
	if err := (Fields{&pv, &pairs, &pd, &us, &str}).Load(empty.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if pv != nil || pairs != nil || pd != nil || us != nil || str != "" {
		t.Fatalf("empty replaced fields read back as %v, %v, %v, %v, %q; want nil and empty", pv, pairs, pd, us, str)
	}
}

// TestFieldsLen: Len is the length of Append's encoding, kind by kind and
// for the whole list, with replaced fields nil and set.
func TestFieldsLen(t *testing.T) {
	all := everyKind(8)
	lists := []Fields{all, {new(*Dense)}, {new([]float64)}, {new([][]float64)}, {new([]uint32)}, {new(string)}}
	for _, f := range all {
		lists = append(lists, Fields{f})
	}
	for _, fs := range lists {
		if n, want := fs.Len(), len(fs.Append(nil)); n != want {
			t.Errorf("%T: Len = %d, Append wrote %d bytes", fs[0], n, want)
		}
	}
}

// TestSectionStateBytesAllocs: measuring a section walks its list and
// allocates nothing.
func TestSectionStateBytesAllocs(t *testing.T) {
	s := Section{Key: "k", State: everyKind(9)}
	n := 0
	if allocs := testing.AllocsPerRun(20, func() { n = s.StateBytes() }); allocs != 0 {
		t.Fatalf("StateBytes allocates %v times", allocs)
	}
	if want := len(s.AppendState(nil)); n != want {
		t.Fatalf("StateBytes = %d, the section encodes %d bytes", n, want)
	}
}

// TestFieldsLoadRejects: a load that fails — truncated, trailing bytes, a
// count, length, shape, name or bool that does not match — returns an
// error and leaves every field as it was.
func TestFieldsLoadRejects(t *testing.T) {
	good := everyKind(3).Append(nil)
	le := binary.LittleEndian
	// Offsets of the fixed-width prefix: f64, u64, bool, then vec's count.
	boolAt, vecAt := 16, 17
	patch := func(at int, v uint32) []byte {
		b := bytes.Clone(good)
		le.PutUint32(b[at:], v)
		return b
	}
	badBool := bytes.Clone(good)
	badBool[boolAt] = 2
	badName := bytes.Clone(good)
	badName[len(badName)-1] = 'x'
	badCount := bytes.Clone(good)
	le.PutUint32(badCount[len(good)-8-4:], 8) // the uint32 field
	for name, b := range map[string][]byte{
		"truncated": good[:len(good)-1],
		"half":      good[:len(good)/2],
		"empty":     nil,
		"trailing":  append(bytes.Clone(good), 0),
		"bool":      badBool,
		"vec len":   patch(vecAt, 4),
		"name":      badName,
		"count":     badCount,
	} {
		fs := everyKind(4)
		before := fs.Append(nil)
		if err := fs.Load(b); err == nil {
			t.Fatalf("%s: load succeeded", name)
		}
		if !bytes.Equal(fs.Append(nil), before) {
			t.Fatalf("%s: a failed load changed the fields", name)
		}
	}
	d := Fields{NewDense(3, 2)}
	if err := d.Load(Fields{NewDense(2, 3)}.Append(nil)); err == nil {
		t.Fatal("a 2×3 matrix loaded into a 3×2 one")
	}
}

// TestFieldsUnknownKindPanics: a kind the list has no encoding for panics
// on first use rather than writing nothing.
func TestFieldsUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Fields{new(float32)}.Append(nil)
}

// FuzzFieldsLoad: no input panics a load of every kind; a load that
// succeeds re-appends exactly the input, and one that fails changes
// nothing.
func FuzzFieldsLoad(f *testing.F) {
	good := everyKind(5).Append(nil)
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(bytes.Clone(good), 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		fs := everyKind(6)
		before := fs.Append(nil)
		if err := fs.Load(b); err != nil {
			if !bytes.Equal(fs.Append(nil), before) {
				t.Fatalf("failed load (%v) changed the fields", err)
			}
			return
		}
		if got := fs.Append(nil); !bytes.Equal(got, b) {
			t.Fatalf("loaded %x, re-appended %x", b, got)
		}
	})
}

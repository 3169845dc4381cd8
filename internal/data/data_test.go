package data

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

func TestSynthImagesShapeAndLabels(t *testing.T) {
	rng := mat.NewRNG(1)
	d := SynthImages(rng, ClassSpec{Classes: 4, PerClass: 10, Shape: nn.Shape{C: 3, H: 8, W: 8}, Noise: 0.1})
	if d.Len() != 40 {
		t.Fatalf("Len = %d; want 40", d.Len())
	}
	if d.X.Cols() != 3*8*8 {
		t.Fatalf("X cols = %d; want 192", d.X.Cols())
	}
	counts := map[int]int{}
	for _, l := range d.Labels {
		if l < 0 || l >= 4 {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	for k := 0; k < 4; k++ {
		if counts[k] != 10 {
			t.Fatalf("class %d count = %d; want 10", k, counts[k])
		}
	}
}

func TestSynthImagesDeterministic(t *testing.T) {
	spec := ClassSpec{Classes: 3, PerClass: 5, Shape: nn.Shape{C: 1, H: 6, W: 6}, Noise: 0.2}
	d1 := SynthImages(mat.NewRNG(7), spec)
	d2 := SynthImages(mat.NewRNG(7), spec)
	if !mat.Equal(d1.X, d2.X, 0) {
		t.Fatal("same seed produced different data")
	}
	d3 := SynthImages(mat.NewRNG(8), spec)
	if mat.Equal(d1.X, d3.X, 0) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSynthImagesClassesDiffer(t *testing.T) {
	// Class means must differ — otherwise the task is unlearnable.
	rng := mat.NewRNG(2)
	d := SynthImages(rng, ClassSpec{Classes: 2, PerClass: 50, Shape: nn.Shape{C: 1, H: 8, W: 8}, Noise: 0.05})
	mean := func(class int) []float64 {
		out := make([]float64, d.X.Cols())
		cnt := 0
		for i := 0; i < d.Len(); i++ {
			if d.Labels[i] != class {
				continue
			}
			for j, v := range d.X.Row(i) {
				out[j] += v
			}
			cnt++
		}
		for j := range out {
			out[j] /= float64(cnt)
		}
		return out
	}
	m0, m1 := mean(0), mean(1)
	var dist float64
	for j := range m0 {
		dd := m0[j] - m1[j]
		dist += dd * dd
	}
	if dist < 0.1 {
		t.Fatalf("class means too close: %g", dist)
	}
}

func TestSynthVectors(t *testing.T) {
	rng := mat.NewRNG(3)
	d := SynthVectors(rng, 5, 20, 16, 0.1)
	if d.Len() != 100 || d.X.Cols() != 16 || d.Classes != 5 {
		t.Fatalf("unexpected dataset: len=%d cols=%d classes=%d", d.Len(), d.X.Cols(), d.Classes)
	}
}

func TestSynthSegmentationMasksBinary(t *testing.T) {
	rng := mat.NewRNG(4)
	d := SynthSegmentation(rng, SegSpec{N: 20, Shape: nn.Shape{C: 2, H: 16, W: 16}, Noise: 0.5})
	if d.Masks.Rows() != 20 || d.Masks.Cols() != 256 {
		t.Fatalf("mask dims %dx%d", d.Masks.Rows(), d.Masks.Cols())
	}
	anyLesion := false
	for _, v := range d.Masks.Data() {
		if v != 0 && v != 1 {
			t.Fatalf("non-binary mask value %g", v)
		}
		if v == 1 {
			anyLesion = true
		}
	}
	if !anyLesion {
		t.Fatal("no lesions generated in 20 samples")
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	rng := mat.NewRNG(5)
	d := SynthVectors(rng, 2, 50, 4, 0.1)
	tr, te := Split(mat.NewRNG(6), d, 0.2)
	if tr.Len()+te.Len() != d.Len() {
		t.Fatalf("split sizes %d+%d != %d", tr.Len(), te.Len(), d.Len())
	}
	if te.Len() != 20 {
		t.Fatalf("test size = %d; want 20", te.Len())
	}
}

func TestBatchIteratorCoversEpoch(t *testing.T) {
	rng := mat.NewRNG(7)
	it := NewBatchIterator(rng, 100, 25)
	if it.BatchesPerEpoch() != 4 {
		t.Fatalf("BatchesPerEpoch = %d; want 4", it.BatchesPerEpoch())
	}
	seen := map[int]bool{}
	for b := 0; b < 4; b++ {
		for _, i := range it.Next() {
			if seen[i] {
				t.Fatalf("index %d repeated within epoch", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("epoch covered %d samples; want 100", len(seen))
	}
	// Next epoch reshuffles without panic.
	if got := len(it.Next()); got != 25 {
		t.Fatalf("batch size = %d; want 25", got)
	}
}

func TestBatchExtraction(t *testing.T) {
	rng := mat.NewRNG(8)
	d := SynthVectors(rng, 3, 10, 5, 0.1)
	x, tgt := d.Batch([]int{0, 3, 7})
	if x.Rows() != 3 || len(tgt.Labels) != 3 {
		t.Fatalf("batch dims wrong: %d rows, %d labels", x.Rows(), len(tgt.Labels))
	}
	if tgt.Labels[1] != d.Labels[3] {
		t.Fatal("labels misaligned with rows")
	}
}

func TestAugmenterFlipOnly(t *testing.T) {
	shape := nn.Shape{C: 1, H: 2, W: 3}
	x := mat.FromRows([][]float64{{1, 2, 3, 4, 5, 6}})
	// Deterministic: find a seed whose first draw flips.
	var flipped *mat.Dense
	for seed := uint64(1); seed < 50; seed++ {
		a := NewAugmenter(mat.NewRNG(seed), shape, true, 0)
		out := a.Apply(x)
		if out.At(0, 0) == 3 { // row [1 2 3] reversed to [3 2 1]
			flipped = out
			break
		}
	}
	if flipped == nil {
		t.Fatal("no seed produced a flip in 50 tries")
	}
	want := mat.FromRows([][]float64{{3, 2, 1, 6, 5, 4}})
	if !mat.Equal(flipped, want, 0) {
		t.Fatalf("flip = %v; want %v", flipped, want)
	}
}

func TestAugmenterNoOpsPreserve(t *testing.T) {
	shape := nn.Shape{C: 2, H: 4, W: 4}
	rng := mat.NewRNG(3)
	x := mat.RandN(rng, 5, 32, 1)
	a := NewAugmenter(mat.NewRNG(4), shape, false, 0)
	if !mat.Equal(a.Apply(x), x, 0) {
		t.Fatal("no-op augmenter changed the batch")
	}
}

func TestAugmenterCropBounded(t *testing.T) {
	shape := nn.Shape{C: 1, H: 6, W: 6}
	rng := mat.NewRNG(5)
	x := mat.RandN(rng, 10, 36, 1)
	a := NewAugmenter(mat.NewRNG(6), shape, true, 2)
	out := a.Apply(x)
	// Energy can only shrink (zero padding) and stays finite.
	if out.FrobNorm() > x.FrobNorm()+1e-9 {
		t.Fatalf("augmented energy %g above input %g", out.FrobNorm(), x.FrobNorm())
	}
	if out.FrobNorm() == 0 {
		t.Fatal("augmentation zeroed everything")
	}
}

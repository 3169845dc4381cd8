// Package data generates the deterministic synthetic datasets that stand in
// for ImageNet-1k, CIFAR-10/100, Fashion-MNIST, and the LGG MRI segmentation
// set (see DESIGN.md §2). Each generator produces structured, learnable
// tasks: images are class-conditioned mixtures of localized blobs and
// oriented gratings plus noise, and segmentation samples contain geometric
// lesions whose masks are the target.
package data

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/nn"
)

// Dataset is an in-memory supervised dataset with flattened samples.
type Dataset struct {
	// X holds one flattened sample per row.
	X *mat.Dense
	// Labels holds class indices for classification tasks (nil otherwise).
	Labels []int
	// Masks holds dense targets for segmentation tasks (nil otherwise).
	Masks *mat.Dense
	// Shape is the per-sample geometry.
	Shape nn.Shape
	// Classes is the number of classes (0 for segmentation).
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Rows() }

// Batch returns the subset of samples at idx as (inputs, target).
func (d *Dataset) Batch(idx []int) (*mat.Dense, nn.Target) {
	x := d.X.SelectRows(idx)
	if d.Labels != nil {
		lab := make([]int, len(idx))
		for k, i := range idx {
			lab[k] = d.Labels[i]
		}
		return x, nn.Target{Labels: lab}
	}
	return x, nn.Target{Dense: d.Masks.SelectRows(idx)}
}

// ClassSpec configures SynthImages.
type ClassSpec struct {
	Classes  int
	PerClass int
	Shape    nn.Shape
	// Noise is the per-pixel Gaussian noise sigma (task difficulty knob).
	Noise float64
}

// SynthImages generates a class-conditioned image classification dataset.
// Class k places a Gaussian blob at a class-specific location and overlays
// an oriented grating with class-specific frequency/phase across channels,
// so both local and global features carry label information — loosely the
// structure CNNs exploit in natural-image datasets.
func SynthImages(rng *mat.RNG, spec ClassSpec) *Dataset {
	n := spec.Classes * spec.PerClass
	d := spec.Shape.Numel()
	x := mat.NewDense(n, d)
	labels := make([]int, n)
	hw := spec.Shape.H * spec.Shape.W
	for i := 0; i < n; i++ {
		k := i % spec.Classes
		labels[i] = k
		row := x.Row(i)
		// Class-specific blob center on a ring.
		ang := 2 * math.Pi * float64(k) / float64(spec.Classes)
		h, w := float64(spec.Shape.H), float64(spec.Shape.W)
		cy := float64(h/2) + float64(h/4*math.Sin(ang))
		cx := float64(w/2) + float64(w/4*math.Cos(ang))
		sigma := float64(spec.Shape.H) / 6
		freq := 1 + float64(k%4)
		phase := float64(k) * math.Pi / float64(spec.Classes)
		// Small random jitter per sample.
		jy, jx := rng.Norm()*1.0, rng.Norm()*1.0
		amp := 0.8 + float64(0.4*rng.Float64())
		for c := 0; c < spec.Shape.C; c++ {
			chSign := 1.0
			if c%2 == 1 {
				chSign = -1
			}
			for yy := 0; yy < spec.Shape.H; yy++ {
				for xx := 0; xx < spec.Shape.W; xx++ {
					dy := float64(yy) - cy - jy
					dx := float64(xx) - cx - jx
					blob := amp * math.Exp(-(float64(dy*dy)+float64(dx*dx))/(2*sigma*sigma))
					grate := float64(0.3 * math.Sin(2*math.Pi*freq*float64(xx)/float64(spec.Shape.W)+phase+float64(c)))
					v := float64(chSign*blob) + grate + float64(spec.Noise*rng.Norm())
					row[c*hw+yy*spec.Shape.W+xx] = v
				}
			}
		}
	}
	return &Dataset{X: x, Labels: labels, Shape: spec.Shape, Classes: spec.Classes}
}

// SynthVectors generates a linearly-nonseparable vector classification task
// (Gaussian mixtures on concentric shells) for MLP experiments.
func SynthVectors(rng *mat.RNG, classes, perClass, dim int, noise float64) *Dataset {
	n := classes * perClass
	x := mat.NewDense(n, dim)
	labels := make([]int, n)
	// Class centers: random orthogonal-ish directions with class-dependent
	// radius so both direction and magnitude carry information.
	centers := mat.RandN(rng, classes, dim, 1)
	for k := 0; k < classes; k++ {
		r := centers.Row(k)
		nrm := mat.Norm2(r)
		scale := (1 + float64(0.5*float64(k))) / nrm
		for j := range r {
			r[j] *= scale
		}
	}
	for i := 0; i < n; i++ {
		k := i % classes
		labels[i] = k
		row := x.Row(i)
		copy(row, centers.Row(k))
		for j := range row {
			row[j] += float64(noise * rng.Norm())
		}
	}
	return &Dataset{X: x, Labels: labels, Shape: nn.Vec(dim), Classes: classes}
}

// SegSpec configures SynthSegmentation.
type SegSpec struct {
	N     int
	Shape nn.Shape // input shape; masks are H×W single-channel
	Noise float64
}

// SynthSegmentation generates a binary lesion-segmentation task in the
// spirit of the LGG MRI dataset: each image contains background texture and
// 0-2 elliptical "lesions" of higher intensity; the mask marks lesion
// pixels.
func SynthSegmentation(rng *mat.RNG, spec SegSpec) *Dataset {
	h, w := spec.Shape.H, spec.Shape.W
	x := mat.NewDense(spec.N, spec.Shape.Numel())
	masks := mat.NewDense(spec.N, h*w)
	for i := 0; i < spec.N; i++ {
		row := x.Row(i)
		mrow := masks.Row(i)
		// Background texture.
		for j := range row {
			row[j] = float64(0.2*rng.Norm()*spec.Noise) + 0.1
		}
		nles := rng.Intn(3) // 0, 1, or 2 lesions
		for l := 0; l < nles; l++ {
			cy := 4 + float64(rng.Float64()*float64(h-8))
			cx := 4 + float64(rng.Float64()*float64(w-8))
			ry := 2 + rng.Float64()*float64(h)/6
			rx := 2 + rng.Float64()*float64(w)/6
			for yy := 0; yy < h; yy++ {
				for xx := 0; xx < w; xx++ {
					dy := (float64(yy) - cy) / ry
					dx := (float64(xx) - cx) / rx
					if float64(dy*dy)+float64(dx*dx) <= 1 {
						mrow[yy*w+xx] = 1
						for c := 0; c < spec.Shape.C; c++ {
							row[c*h*w+yy*w+xx] += 0.9 + float64(0.2*rng.Float64())
						}
					}
				}
			}
		}
	}
	return &Dataset{X: x, Masks: masks, Shape: spec.Shape}
}

// Split partitions a dataset into train/test by a deterministic shuffle.
func Split(rng *mat.RNG, d *Dataset, testFrac float64) (train, test *Dataset) {
	n := d.Len()
	perm := rng.Perm(n)
	nTest := int(float64(n) * testFrac)
	testIdx, trainIdx := perm[:nTest], perm[nTest:]
	sel := func(idx []int) *Dataset {
		out := &Dataset{Shape: d.Shape, Classes: d.Classes, X: d.X.SelectRows(idx)}
		if d.Labels != nil {
			out.Labels = make([]int, len(idx))
			for k, i := range idx {
				out.Labels[k] = d.Labels[i]
			}
		}
		if d.Masks != nil {
			out.Masks = d.Masks.SelectRows(idx)
		}
		return out
	}
	return sel(trainIdx), sel(testIdx)
}

// BatchIterator yields shuffled minibatch index sets each epoch.
type BatchIterator struct {
	rng   *mat.RNG
	n, bs int
	perm  []int
	pos   int
	// Section is the checkpoint: the cursor, the live permutation and the
	// RNG stream, which resume the exact batch sequence.
	mat.Section
}

// NewBatchIterator returns an iterator over n samples in batches of bs.
func NewBatchIterator(rng *mat.RNG, n, bs int) *BatchIterator {
	it := &BatchIterator{rng: rng, n: n, bs: bs, perm: make([]int, n)}
	it.Key, it.State, it.Check = "data/iter", mat.Fields{&it.pos, it.perm, rng}, it.check
	it.reshuffle()
	return it
}

// check vets a loaded section: Next slices perm from pos and hands its
// entries out as sample indices.
func (it *BatchIterator) check() error {
	seen := make([]bool, it.n)
	for _, v := range it.perm {
		if v < 0 || v >= it.n || seen[v] {
			return fmt.Errorf("data: iterator order is no permutation of %d samples", it.n)
		}
		seen[v] = true
	}
	if it.pos < 0 {
		return fmt.Errorf("data: iterator cursor %d", it.pos)
	}
	return nil
}

// reshuffle draws the next epoch's order into perm, in place.
func (it *BatchIterator) reshuffle() {
	it.rng.PermInto(it.perm)
	it.pos = 0
}

// Next returns the next batch of indices, reshuffling at epoch boundaries.
// Batches are always full-size; a short tail is folded into the reshuffle.
// The slice aliases the iterator's permutation: it holds until the next call.
func (it *BatchIterator) Next() []int {
	if it.pos+it.bs > it.n {
		it.reshuffle()
	}
	out := it.perm[it.pos : it.pos+it.bs]
	it.pos += it.bs
	return out
}

// BatchesPerEpoch returns the number of full batches per epoch.
func (it *BatchIterator) BatchesPerEpoch() int { return it.n / it.bs }

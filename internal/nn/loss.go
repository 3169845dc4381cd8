package nn

import (
	"math"

	"repro/internal/mat"
)

// Loss computes a scalar training objective and the gradient of its batch
// mean with respect to the network output.
type Loss interface {
	// Forward returns (mean loss, ∂mean/∂logits).
	Forward(logits *mat.Dense, target Target) (float64, *mat.Dense)
}

// Target carries either class labels or dense per-pixel targets.
type Target struct {
	Labels []int      // classification
	Dense  *mat.Dense // segmentation / regression, same shape as logits
}

// SoftmaxCrossEntropy is the standard classification loss.
type SoftmaxCrossEntropy struct{}

// Forward implements Loss.
func (SoftmaxCrossEntropy) Forward(logits *mat.Dense, target Target) (float64, *mat.Dense) {
	m, k := logits.Dims()
	if len(target.Labels) != m {
		panic("nn: label count mismatch")
	}
	grad := mat.NewDense(m, k)
	var loss float64
	for i := 0; i < m; i++ {
		row := logits.Row(i)
		// Stable log-sum-exp.
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - maxV)
		}
		lse := maxV + math.Log(sum)
		y := target.Labels[i]
		loss += lse - row[y]
		gr := grad.Row(i)
		for j, v := range row {
			p := math.Exp(v - lse)
			gr[j] = p / float64(m)
		}
		gr[y] -= 1 / float64(m)
	}
	return loss / float64(m), grad
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *mat.Dense, labels []int) float64 {
	m := logits.Rows()
	if m == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < m; i++ {
		row := logits.Row(i)
		best, arg := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, arg = v, j+1
			}
		}
		if arg == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(m)
}

// MSE is mean squared error over all elements.
type MSE struct{}

// Forward implements Loss.
func (MSE) Forward(out *mat.Dense, target Target) (float64, *mat.Dense) {
	t := target.Dense
	if t == nil || t.Rows() != out.Rows() || t.Cols() != out.Cols() {
		panic("nn: MSE target shape mismatch")
	}
	n := float64(out.Rows() * out.Cols())
	grad := mat.NewDense(out.Rows(), out.Cols())
	var loss float64
	od, td, gd := out.Data(), t.Data(), grad.Data()
	for i := range od {
		d := od[i] - td[i]
		loss += float64(d * d)
		gd[i] = 2 * d / n
	}
	return loss / n, grad
}

// BCEDice combines binary cross-entropy on logits with a soft Dice term;
// it is the standard objective for the LGG-style binary segmentation task,
// and its Dice component is the paper's U-Net target metric.
type BCEDice struct {
	// DiceWeight balances the two terms; 0 gives pure BCE.
	DiceWeight float64
}

// Forward implements Loss. out holds per-pixel logits; target.Dense holds
// {0,1} masks of identical shape.
func (l BCEDice) Forward(out *mat.Dense, target Target) (float64, *mat.Dense) {
	t := target.Dense
	if t == nil || t.Rows() != out.Rows() || t.Cols() != out.Cols() {
		panic("nn: BCEDice target shape mismatch")
	}
	m := out.Rows()
	n := float64(out.Rows() * out.Cols())
	grad := mat.NewDense(out.Rows(), out.Cols())
	od, td, gd := out.Data(), t.Data(), grad.Data()

	// Sigmoid probabilities, shared by both terms.
	p := make([]float64, len(od))
	for i, v := range od {
		p[i] = 1 / (1 + math.Exp(-v))
	}

	// BCE with logits: mean over all pixels.
	var bce float64
	for i := range od {
		z, y := od[i], td[i]
		// log(1+e^z) computed stably.
		var softplus float64
		if z > 0 {
			softplus = z + math.Log1p(math.Exp(-z))
		} else {
			softplus = math.Log1p(math.Exp(z))
		}
		bce += softplus - float64(y*z)
		gd[i] = (p[i] - y) / n
	}
	bce /= n

	if l.DiceWeight == 0 {
		return bce, grad
	}

	// Soft Dice per sample: D = 2·Σpy / (Σp + Σy + eps); loss adds
	// (1 − mean D). dD/dpᵢ = (2yᵢ(Σp+Σy+eps) − 2Σpy) / (Σp+Σy+eps)².
	const eps = 1e-6
	cols := out.Cols()
	var diceSum float64
	for i := 0; i < m; i++ {
		var sp, sy, spy float64
		for j := 0; j < cols; j++ {
			idx := i*cols + j
			sp += p[idx]
			sy += td[idx]
			spy += float64(p[idx] * td[idx])
		}
		den := sp + sy + eps
		dice := 2 * spy / den
		diceSum += dice
		for j := 0; j < cols; j++ {
			idx := i*cols + j
			dDdp := (float64(2*td[idx]*den) - float64(2*spy)) / (den * den)
			// Chain through sigmoid; Dice contributes −DiceWeight·D/m.
			gd[idx] -= l.DiceWeight * dDdp * p[idx] * (1 - p[idx]) / float64(m)
		}
	}
	diceLoss := 1 - diceSum/float64(m)
	return bce + float64(l.DiceWeight*diceLoss), grad
}

// DiceScore returns the mean Dice similarity coefficient of thresholded
// sigmoid(logits) against binary masks — the U-Net target metric.
func DiceScore(logits, masks *mat.Dense, threshold float64) float64 {
	m, cols := logits.Dims()
	if m == 0 {
		return 0
	}
	const eps = 1e-6
	var sum float64
	for i := 0; i < m; i++ {
		var inter, a, b float64
		lr, mr := logits.Row(i), masks.Row(i)
		for j := 0; j < cols; j++ {
			pred := 0.0
			if 1/(1+math.Exp(-lr[j])) >= threshold {
				pred = 1
			}
			inter += float64(pred * mr[j])
			a += pred
			b += mr[j]
		}
		sum += (2*inter + eps) / (a + b + eps)
	}
	return sum / float64(m)
}

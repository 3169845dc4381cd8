package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// SelfAttention is a single-head self-attention block over sequences of L
// tokens with model dimension d. Activations carry the sequence flattened
// as Shape{C: L, H: d, W: 1} (token-major), so the layer composes with the
// rest of the sequential stack.
//
// The four projections are ordinary Linear layers applied per token
// ((m·L)×d row matrices), so each exposes per-token (A, G) captures and
// every second-order method in this library — including HyLo — extends to
// attention models for free. This goes beyond the paper, which formulates
// SNGD for fully-connected and convolutional layers only.
type SelfAttention struct {
	Wq, Wk, Wv, Wo *Linear

	l, d int
	name string

	// forward state for backward
	xt         *mat.Dense   // (mL)×d input tokens
	q, k, v    *mat.Dense   // (mL)×d projections
	attn       []*mat.Dense // per sample: L×L softmax
	headOut    *mat.Dense   // (mL)×d pre-Wo
	batchSize  int
	scaleCoeff float64
}

// NewSelfAttention returns an unbuilt self-attention block; dimensions come
// from the input shape at Build time.
func NewSelfAttention() *SelfAttention { return &SelfAttention{} }

// Name implements Layer.
func (s *SelfAttention) Name() string { return s.name }

// Build implements Layer.
func (s *SelfAttention) Build(in Shape, rng *mat.RNG) Shape {
	if in.W != 1 || in.C < 1 || in.H < 1 {
		panic(fmt.Sprintf("nn: SelfAttention needs Shape{L, d, 1}, got %v", in))
	}
	s.l, s.d = in.C, in.H
	// "h=1" is part of the parameter names checkpoints are keyed by.
	s.name = fmt.Sprintf("attention(L=%d,d=%d,h=1)", s.l, s.d)
	tok := Vec(s.d)
	mk := func(tag string) *Linear {
		lin := NewLinear(s.d)
		lin.Build(tok, rng)
		lin.name = s.name + "." + tag
		lin.wc.Name = lin.name + ".Wc"
		return lin
	}
	s.Wq, s.Wk, s.Wv, s.Wo = mk("Wq"), mk("Wk"), mk("Wv"), mk("Wo")
	s.scaleCoeff = 1 / math.Sqrt(float64(s.d))
	return in
}

// tokens reinterprets the m×(L·d) batch as an (m·L)×d token matrix
// (token-major layout makes this a zero-copy reshape).
func (s *SelfAttention) tokens(x *mat.Dense) *mat.Dense {
	return mat.NewDenseData(x.Rows()*s.l, s.d, x.Data())
}

// Forward implements Layer.
func (s *SelfAttention) Forward(x *mat.Dense, train bool) *mat.Dense {
	m := x.Rows()
	s.batchSize = m
	s.xt = s.tokens(x).Clone()
	s.q = s.Wq.Forward(s.xt, train)
	s.k = s.Wk.Forward(s.xt, train)
	s.v = s.Wv.Forward(s.xt, train)

	s.attn = make([]*mat.Dense, m)
	s.headOut = mat.NewDense(m*s.l, s.d)
	for b := 0; b < m; b++ {
		qb := s.q.SliceRows(b*s.l, (b+1)*s.l)
		kb := s.k.SliceRows(b*s.l, (b+1)*s.l)
		vb := s.v.SliceRows(b*s.l, (b+1)*s.l)
		scores := mat.MulTB(qb, kb).Scale(s.scaleCoeff) // L×L
		softmaxRows(scores)
		s.attn[b] = scores
		// Rows b·L … (b+1)·L of the (mL)×d matrices are one contiguous block.
		copy(s.headOut.Data()[b*s.l*s.d:], mat.Mul(scores, vb).Data())
	}
	out := s.Wo.Forward(s.headOut, train)
	// Reshape (mL)×d back to m×(L·d): same layout, rewrap.
	return mat.NewDenseData(m, s.l*s.d, out.Data())
}

// Backward implements Layer.
func (s *SelfAttention) Backward(grad *mat.Dense) *mat.Dense {
	m := s.batchSize
	gradTok := s.tokens(grad)
	dHead := s.Wo.Backward(gradTok) // (mL)×d

	dQ := mat.NewDense(m*s.l, s.d)
	dK := mat.NewDense(m*s.l, s.d)
	dV := mat.NewDense(m*s.l, s.d)
	for b := 0; b < m; b++ {
		vb := s.v.SliceRows(b*s.l, (b+1)*s.l)
		qb := s.q.SliceRows(b*s.l, (b+1)*s.l)
		kb := s.k.SliceRows(b*s.l, (b+1)*s.l)
		dOb := dHead.SliceRows(b*s.l, (b+1)*s.l) // L×d
		attn := s.attn[b]                        // L×L

		// out = attn·V: dV = attnᵀ dO; dAttn = dO Vᵀ.
		dVb := mat.MulTA(attn, dOb)
		dAttn := mat.MulTB(dOb, vb) // L×L
		// Softmax backward per row:
		// dS = attn ∘ (dAttn − rowsum(dAttn∘attn)).
		dScores := mat.NewDense(s.l, s.l)
		for i := 0; i < s.l; i++ {
			ar, dr, sr := attn.Row(i), dAttn.Row(i), dScores.Row(i)
			var dot float64
			for j := range ar {
				dot += float64(dr[j] * ar[j])
			}
			for j := range ar {
				sr[j] = ar[j] * (dr[j] - dot)
			}
		}
		dScores.Scale(s.scaleCoeff)
		// scores = Q Kᵀ: dQ = dScores·K; dK = dScoresᵀ·Q.
		blk := b * s.l * s.d
		copy(dQ.Data()[blk:], mat.Mul(dScores, kb).Data())
		copy(dK.Data()[blk:], mat.MulTA(dScores, qb).Data())
		copy(dV.Data()[blk:], dVb.Data())
	}
	dx := s.Wq.Backward(dQ)
	dx.AddMat(s.Wk.Backward(dK))
	dx.AddMat(s.Wv.Backward(dV))
	return mat.NewDenseData(m, s.l*s.d, dx.Data())
}

// softmaxRows applies a numerically stable softmax to each row in place.
func softmaxRows(m *mat.Dense) {
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxV)
			row[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// Params implements Layer.
func (s *SelfAttention) Params() []*Param {
	return []*Param{s.Wq.wc, s.Wk.wc, s.Wv.wc, s.Wo.wc}
}

// SubLayers implements Composite, exposing the four projections as kernel
// layers so second-order preconditioners treat them like any Linear.
func (s *SelfAttention) SubLayers() []Layer {
	return []Layer{s.Wq, s.Wk, s.Wv, s.Wo}
}

// PosEmbed adds a learnable positional embedding to each token of a
// Shape{L, d, 1} sequence. Without it, attention + mean pooling is
// permutation-equivariant and discards patch locations.
type PosEmbed struct {
	l, d int
	emb  *Param
}

// NewPosEmbed returns an unbuilt positional-embedding layer.
func NewPosEmbed() *PosEmbed { return &PosEmbed{} }

// Name implements Layer.
func (p *PosEmbed) Name() string { return "posembed" }

// Build implements Layer.
func (p *PosEmbed) Build(in Shape, rng *mat.RNG) Shape {
	if in.W != 1 {
		panic("nn: PosEmbed needs Shape{L, d, 1}")
	}
	p.l, p.d = in.C, in.H
	p.emb = NewParam("posembed.E", mat.RandN(rng, p.l, p.d, 0.02))
	return in
}

// Forward implements Layer.
func (p *PosEmbed) Forward(x *mat.Dense, _ bool) *mat.Dense {
	m := x.Rows()
	out := x.Clone()
	for i := 0; i < m; i++ {
		row := out.Row(i)
		for tok := 0; tok < p.l; tok++ {
			er := p.emb.W.Row(tok)
			dst := row[tok*p.d : (tok+1)*p.d]
			for j := range dst {
				dst[j] += er[j]
			}
		}
	}
	return out
}

// Backward implements Layer: the embedding gradient is the token-wise sum
// of the incoming gradient over the batch; the input gradient passes
// through unchanged.
func (p *PosEmbed) Backward(grad *mat.Dense) *mat.Dense {
	m := grad.Rows()
	for i := 0; i < m; i++ {
		row := grad.Row(i)
		for tok := 0; tok < p.l; tok++ {
			gr := p.emb.Grad.Row(tok)
			src := row[tok*p.d : (tok+1)*p.d]
			for j := range gr {
				gr[j] += src[j]
			}
		}
	}
	return grad
}

// Params implements Layer.
func (p *PosEmbed) Params() []*Param { return []*Param{p.emb} }

// TokenMLP applies a position-wise feed-forward block (Linear → activation
// → Linear) to each token of a Shape{L, d, 1} sequence.
type TokenMLP struct {
	Hidden int

	l, d     int
	up, down *Linear
	act      *ReLU
	name     string
}

// NewTokenMLP returns an unbuilt position-wise MLP with the given hidden
// width.
func NewTokenMLP(hidden int) *TokenMLP { return &TokenMLP{Hidden: hidden} }

// Name implements Layer.
func (t *TokenMLP) Name() string { return t.name }

// Build implements Layer.
func (t *TokenMLP) Build(in Shape, rng *mat.RNG) Shape {
	if in.W != 1 {
		panic("nn: TokenMLP needs Shape{L, d, 1}")
	}
	t.l, t.d = in.C, in.H
	t.name = fmt.Sprintf("tokenmlp(L=%d,%d->%d->%d)", t.l, t.d, t.Hidden, t.d)
	t.up = NewLinear(t.Hidden)
	t.up.Build(Vec(t.d), rng)
	t.up.name = t.name + ".up"
	t.up.wc.Name = t.up.name + ".Wc"
	t.act = NewReLU()
	t.down = NewLinear(t.d)
	t.down.Build(Vec(t.Hidden), rng)
	t.down.name = t.name + ".down"
	t.down.wc.Name = t.down.name + ".Wc"
	return in
}

// Forward implements Layer.
func (t *TokenMLP) Forward(x *mat.Dense, train bool) *mat.Dense {
	m := x.Rows()
	xt := mat.NewDenseData(m*t.l, t.d, x.Data())
	h := t.act.Forward(t.up.Forward(xt, train), train)
	out := t.down.Forward(h, train)
	return mat.NewDenseData(m, t.l*t.d, out.Data())
}

// Backward implements Layer.
func (t *TokenMLP) Backward(grad *mat.Dense) *mat.Dense {
	m := grad.Rows()
	gt := mat.NewDenseData(m*t.l, t.d, grad.Data())
	dx := t.up.Backward(t.act.Backward(t.down.Backward(gt)))
	return mat.NewDenseData(m, t.l*t.d, dx.Data())
}

// Params implements Layer.
func (t *TokenMLP) Params() []*Param { return []*Param{t.up.wc, t.down.wc} }

// SubLayers implements Composite.
func (t *TokenMLP) SubLayers() []Layer { return []Layer{t.up, t.down} }

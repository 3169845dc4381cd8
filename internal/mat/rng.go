package mat

import "math"

// RNG is a small deterministic PRNG (splitmix64 core with a Box-Muller
// normal generator). Every stochastic component in the repository draws
// from an explicitly seeded RNG so runs are reproducible; nothing touches
// the global math/rand state.
type RNG struct {
	state    uint64
	hasSpare bool
	spare    float64
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next raw 64-bit value (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1). The conversion ends the
// scaling's rounding here, so a caller's 2*Float64() cannot be fused into it.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mat: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal sample.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = float64(2*r.Float64()) - 1
		v = float64(2*r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int { return r.PermInto(make([]int, n)) }

// PermInto fills p with a random permutation of [0, len(p)), drawing what
// Perm(len(p)) draws, and returns it.
func (r *RNG) PermInto(p []int) []int {
	n := len(p)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// RandN returns a rows×cols matrix with iid N(0, sigma²) entries.
func RandN(rng *RNG, rows, cols int, sigma float64) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		m.data[i] = rng.Norm() * sigma
	}
	return m
}

// RandSPD returns an n×n symmetric positive-definite matrix M = BBᵀ + d*I.
func RandSPD(rng *RNG, n int, d float64) *Dense {
	b := RandN(rng, n, n, 1)
	return Gram(b).AddDiag(d)
}

package mat

import (
	"fmt"
	"testing"
)

// benchGEMM reports GEMM throughput in GFLOP/s (2mnk flops per multiply).
func benchGEMM(b *testing.B, n int) {
	rng := NewRNG(1)
	x := RandN(rng, n, n, 1)
	y := RandN(rng, n, n, 1)
	out := NewDense(n, n)
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(out, x, y)
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(flops/sec/1e9, "GFLOP/s")
}

func BenchmarkGEMM_256(b *testing.B)  { benchGEMM(b, 256) }
func BenchmarkGEMM_512(b *testing.B)  { benchGEMM(b, 512) }
func BenchmarkGEMM_1024(b *testing.B) { benchGEMM(b, 1024) }

// BenchmarkGEMMTA_512 exercises the transposed-A path, which the packed
// kernel handles without materializing aᵀ.
func BenchmarkGEMMTA_512(b *testing.B) {
	rng := NewRNG(2)
	x := RandN(rng, 512, 512, 1)
	y := RandN(rng, 512, 512, 1)
	out := NewDense(512, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTAInto(out, x, y)
	}
}

// BenchmarkGEMMTB_512 exercises the transposed-B path.
func BenchmarkGEMMTB_512(b *testing.B) {
	rng := NewRNG(2)
	x := RandN(rng, 512, 512, 1)
	y := RandN(rng, 512, 512, 1)
	out := NewDense(512, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTBInto(out, x, y)
	}
}

// BenchmarkGram measures the SYRK used to build kernel matrices (m=512
// samples, d=256 features).
func BenchmarkGram(b *testing.B) {
	rng := NewRNG(3)
	m := RandN(rng, 512, 256, 1)
	out := NewDense(512, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GramInto(out, m)
	}
}

// BenchmarkInterpolativeDecomp_256r25 measures the exact row ID at the
// deep task's shape (batch 256, rank 10 %) with recycled P/S workspaces.
func BenchmarkInterpolativeDecomp_256r25(b *testing.B) {
	q := RandSPD(NewRNG(5), 256, 0)
	var p *Dense
	var s []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, s = InterpolativeDecompInto(p, s, q, 25, 1e-12)
	}
}

// BenchmarkSolveCond_256x25 measures the KID residual solve
// (R+αI)X = P: LU, condition estimate and an m×r substitution.
func BenchmarkSolveCond_256x25(b *testing.B) {
	rng := NewRNG(6)
	a := RandN(rng, 256, 256, 1).AddDiag(16)
	rhs := RandN(rng, 256, 25, 1)
	x := NewDense(256, 25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveCondInto(x, a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelMatrix measures K = AAᵀ ∘ GGᵀ (Eq. 7) end to end.
func BenchmarkKernelMatrix(b *testing.B) {
	rng := NewRNG(4)
	a := RandN(rng, 256, 128, 1)
	g := RandN(rng, 256, 64, 1)
	out := NewDense(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KernelMatrixInto(out, a, g)
	}
}

// BenchmarkWorkspacePool measures a checkout/return round trip.
func BenchmarkWorkspacePool(b *testing.B) {
	sizes := []int{64, 256, 1024, 4096}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := sizes[i%len(sizes)]
		buf := GetFloats(n)
		PutFloats(buf)
	}
}

func ExampleWorkspace() {
	ws := NewWorkspace()
	defer ws.Release()
	t := ws.Dense(2, 2)
	fmt.Println(t.Rows(), t.Cols())
	// Output: 2 2
}

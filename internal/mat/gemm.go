package mat

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the number of multiply-adds below which GEMM runs
// single-threaded with the simple unpacked kernels; spawning goroutines
// and packing panels for tiny products costs more than it saves.
const parallelThreshold = 64 * 64 * 64

// Register-blocking parameters of the packed kernel: the micro-kernel
// computes an mr×nr block of the output with mr·nr independent
// accumulators, reading B panels packed nr-interleaved and A either packed
// mr-interleaved or in place through (row stride, column stride). 4×8 is the
// AVX2 tile — eight YMM accumulators, one B row as two vector loads, four A
// broadcasts; the pure-Go reference walks the same tile as 2×4 sub-tiles,
// whose 8 accumulators plus 6 operands fit the 16 scalar registers.
const (
	gemmMR = 4
	gemmNR = 8
	// gemmClaimPanels is the number of mr-row panels a worker claims per
	// atomic fetch-add when stealing work.
	gemmClaimPanels = 8
	// Cache-blocking factors: the packed B block is kc×nc ≤ 1 MiB so it
	// stays resident in a typical ≥2 MiB L2 across the whole m sweep, and
	// each A panel (mr×kc = 16 KiB) streams through L1.
	gemmKC = 512
	gemmNC = 256
)

// Mul returns a*b using a packed, cache-blocked, goroutine-parallel kernel.
func Mul(a, b *Dense) *Dense {
	out := getDenseUnpooled(a.rows, b.cols)
	MulInto(out, a, b)
	return out
}

// MulTA returns aᵀ*b.
func MulTA(a, b *Dense) *Dense {
	out := getDenseUnpooled(a.cols, b.cols)
	MulTAInto(out, a, b)
	return out
}

// MulTB returns a*bᵀ.
func MulTB(a, b *Dense) *Dense {
	out := getDenseUnpooled(a.rows, b.rows)
	MulTBInto(out, a, b)
	return out
}

// getDenseUnpooled allocates a fresh matrix outside the pool (the
// allocating API hands ownership to the caller, who must be free to keep
// it forever without starving the pool).
func getDenseUnpooled(rows, cols int) *Dense {
	return NewDense(rows, cols)
}

// MulInto sets dst = a*b without allocating. dst must not alias a or b.
func MulInto(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic("mat: Mul dimension mismatch")
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic("mat: MulInto destination dimension mismatch")
	}
	checkNoAlias("MulInto", dst, a, b)
	gemm(dst, a, b, false, false, a.rows, false)
	return dst
}

// MulTAInto sets dst = aᵀ*b without allocating and without materializing
// aᵀ. dst must not alias a or b.
func MulTAInto(dst, a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic("mat: MulTA dimension mismatch")
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		panic("mat: MulTAInto destination dimension mismatch")
	}
	checkNoAlias("MulTAInto", dst, a, b)
	gemm(dst, a, b, true, false, a.rows, false)
	return dst
}

// MulTBInto sets dst = a*bᵀ without allocating and without materializing
// bᵀ. dst must not alias a or b.
func MulTBInto(dst, a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic("mat: MulTB dimension mismatch")
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		panic("mat: MulTBInto destination dimension mismatch")
	}
	checkNoAlias("MulTBInto", dst, a, b)
	gemm(dst, a, b, false, true, a.rows, false)
	return dst
}

// StripRows is the strip height MulStripInto is built around: the packed
// kernel's k-slice depth, so aᵀb accumulated over consecutive StripRows-row
// strips adds exactly the slices the one-shot product adds, in their order.
const StripRows = gemmKC

// MulStripInto computes what one strip of consecutive rows of a larger
// matrix contributes to a product, bit for bit as the product over the whole
// matrix computes it. a is the strip and rows the whole matrix's row count:
// the packed and the small kernels round differently, and the choice
// between them is made from rows, not from the strip's height.
//
//	!transA: dst = a*op(b), the strip's rows of the whole result.
//	transA:  dst = aᵀ*b — with acc, dst += aᵀ*b — where b is the same strip
//	         of its own whole. Fed every strip in order, StripRows rows each,
//	         acc on all but the first, dst ends as the one-shot product.
//
// dst must not alias a or b.
func MulStripInto(dst, a, b *Dense, transA, transB bool, rows int, acc bool) *Dense {
	dr, dc := a.rows, b.cols
	if transA {
		dr = a.cols
	}
	if transB {
		dc = b.rows
	}
	if dst.rows != dr || dst.cols != dc {
		panic("mat: MulStripInto destination dimension mismatch")
	}
	if rows < a.rows {
		panic("mat: MulStripInto strip is taller than its whole")
	}
	if acc && !transA {
		panic("mat: MulStripInto accumulates k-strips of aᵀb only")
	}
	checkNoAlias("MulStripInto", dst, a, b)
	gemm(dst, a, b, transA, transB, rows, acc)
	return dst
}

// Gathered is an m×k operand that is never stored, m = len(Row) and
// k = len(Col): element (i, p) is Data[Row[i]+Col[p]]. Any matrix whose
// element addresses separate into a row part and a column part is one —
// the unfolded input of a convolution over a zero-padded sample, and its
// transpose, which is the same Data with the two tables swapped.
type Gathered struct {
	Data     []float64
	Row, Col []int
}

// MulGatheredInto sets dst = g*b — with acc, dst += g*b — bit for bit as
// MulStripInto computes it for g written out as a matrix. g is a block of a
// whole wm×wk operand, rows [·, wk = k] of it or columns [wm = m, ·]: as
// there, the packed and the small kernels round differently and the choice
// between them is made from the whole product, and column blocks fed in
// order, StripRows columns each, acc on all but the first, end as the
// one-shot product. Offsets are checked against Data here, once per call;
// nothing below checks them again. dst must not alias b or g.Data.
func MulGatheredInto(dst *Dense, g Gathered, b *Dense, wm, wk int, acc bool) *Dense {
	m, k, n := len(g.Row), len(g.Col), b.cols
	if k != b.rows {
		panic("mat: MulGatheredInto dimension mismatch")
	}
	if dst.rows != m || dst.cols != n {
		panic("mat: MulGatheredInto destination dimension mismatch")
	}
	if wm < m || wk < k {
		panic("mat: MulGatheredInto block is larger than its whole")
	}
	checkNoAlias("MulGatheredInto", dst, b, &Dense{data: g.Data})
	if m == 0 || n == 0 {
		return dst
	}
	if k == 0 {
		if !acc {
			dst.Zero()
		}
		return dst
	}
	if slices.Min(g.Row) < 0 || slices.Min(g.Col) < 0 || slices.Max(g.Row)+slices.Max(g.Col) >= len(g.Data) {
		panic("mat: MulGatheredInto offset tables reach outside Data")
	}
	if wm*n*wk >= parallelThreshold && wm != 1 && n != 1 {
		gemmPacked(dst, nil, g, b, false, false, m, k, n, acc)
		return dst
	}
	// gemmSmall's a*b (and, per element, its aᵀb): zero-skip, then one axpy
	// per p ascending.
	if !acc {
		dst.Zero()
	}
	for i, r := range g.Row {
		orow := dst.data[i*n : (i+1)*n]
		for p, c := range g.Col {
			if av := g.Data[r+c]; av != 0 {
				axpy(orow, b.data[p*n:(p+1)*n], av)
			}
		}
	}
	return dst
}

// checkNoAlias panics when dst shares backing storage with a or b. The
// check is exact for matrices managed by this package (whole-allocation
// backing slices compared by their first element).
func checkNoAlias(op string, dst *Dense, srcs ...*Dense) {
	if len(dst.data) == 0 {
		return
	}
	for _, s := range srcs {
		if len(s.data) != 0 && &dst.data[0] == &s.data[0] {
			panic("mat: " + op + " destination aliases an operand")
		}
	}
}

// gemm computes out = op(a) * op(b) where op optionally transposes.
//
// Large products take the packed path: operand panels are copied into
// pooled, contiguous mr-/nr-interleaved buffers (no transpose is ever
// materialized) and the mr×nr register-blocked micro-kernel runs over row
// panels of the output, distributed across GOMAXPROCS workers by atomic
// work-stealing. Small products fall back to unpacked ikj-style loops that
// also need no transpose copies. a may be a strip of a matrix of `rows` rows
// (MulStripInto): the path is the one the whole product takes, and with acc
// the result is added to out.
func gemm(out, a, b *Dense, transA, transB bool, rows int, acc bool) {
	ar, ac := a.rows, a.cols
	if transA {
		ar, ac = ac, ar
	}
	br, bc := b.rows, b.cols
	if transB {
		br, bc = bc, br
	}
	if ac != br {
		panic("mat: gemm inner dimension mismatch")
	}
	m, k, n := ar, ac, bc
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !acc {
			out.Zero()
		}
		return
	}
	wm, wk := rows, k
	if transA {
		wm, wk = m, rows
	}
	if wm*n*wk < parallelThreshold || wm == 1 || n == 1 {
		gemmSmall(out, a, b, transA, transB, m, k, n, acc)
		return
	}
	gemmPacked(out, a, Gathered{}, b, transA, transB, m, k, n, acc)
}

// gemmSmall handles shapes where packing overhead dominates, with loop
// orders chosen per transpose case so every inner loop is unit-stride on
// the untransposed operands — no transpose is ever materialized. With acc
// the sums over k carry on into out instead of starting from zero (a*bᵀ,
// whose dots are complete before they reach out, is never asked to).
func gemmSmall(out, a, b *Dense, transA, transB bool, m, k, n int, acc bool) {
	if !acc && (transA || !transB) {
		out.Zero()
	}
	switch {
	case !transA && !transB:
		gemmRows(out, a, b, 0, m)
	case transA && !transB:
		// out = aᵀb: rank-1 accumulation; row p of a holds column values
		// a[p, i] = op(a)[i, p], so out.Row(i) += a[p,i] * b.Row(p).
		for p := 0; p < a.rows; p++ {
			arow := a.data[p*a.cols : (p+1)*a.cols]
			brow := b.data[p*b.cols : (p+1)*b.cols]
			for i, av := range arow {
				if av == 0 {
					continue
				}
				axpy(out.data[i*n:(i+1)*n], brow, av)
			}
		}
	case !transA && transB:
		// out[i,j] = a.Row(i) · b.Row(j): both unit-stride dots.
		dotBlock(out.data, n, a.data, k, m, b.data, k, n, k)
	default: // transA && transB
		// out[i,j] += a[p,i]*b[j,p]: keep b's row access unit-stride.
		for j := 0; j < n; j++ {
			brow := b.data[j*b.cols : (j+1)*b.cols]
			for p := 0; p < k; p++ {
				bv := brow[p]
				if bv == 0 {
					continue
				}
				arow := a.data[p*a.cols : (p+1)*a.cols]
				for i := 0; i < m; i++ {
					out.data[i*n+j] += arow[i] * bv
				}
			}
		}
	}
}

// gemmPacked is the blocked kernel, organized as the classic three-level
// GotoBLAS loop nest: for each nc-wide column block and kc-deep slice of k,
// op(b) is packed once into nr-interleaved panels (an L2-resident block),
// then workers claim mr-row panels of the output by atomic work-stealing
// and sweep the micro-kernel across the column panels. The first k-slice
// overwrites out and the rest accumulate into it in a fixed sequential
// order, so the result is deterministic regardless of how workers interleave.
// With acc the first slice accumulates too: out holds the earlier strips.
// A nil a makes the gathered operand g the left factor.
func gemmPacked(out, a *Dense, g Gathered, b *Dense, transA, transB bool, m, k, n int, acc bool) {
	bp := getFloatsRaw(gemmKC * ((gemmNC + gemmNR - 1) / gemmNR) * gemmNR)
	mpanels := (m + gemmMR - 1) / gemmMR
	nw := runtime.GOMAXPROCS(0)
	if max := (mpanels + gemmClaimPanels - 1) / gemmClaimPanels; nw > max {
		nw = max
	}
	if nw < 1 {
		nw = 1
	}
	// Extra workers beyond the calling goroutine come from the shared
	// token pool (when installed), so a GEMM nested under scheduler stages
	// degrades to fewer workers instead of oversubscribing cores. The
	// k-slice accumulation order is fixed, so the result does not depend on
	// how many workers are granted.
	nw, releaseWorkers := acquireWorkers(nw)
	defer releaseWorkers()

	if nw == 1 {
		// Sequential path: no goroutines, no work-stealing state, and one
		// A-panel buffer hoisted across all cache blocks — zero per-block
		// allocations.
		ap := getFloatsRaw(gemmMR * gemmKC)
		for jc := 0; jc < n; jc += gemmNC {
			nc := min(gemmNC, n-jc)
			for pc := 0; pc < k; pc += gemmKC {
				kc := min(gemmKC, k-pc)
				packB(bp, b, transB, pc, kc, jc, nc)
				gemmSweep(out, a, g, transA, ap, bp, 0, mpanels, m, pc, kc, jc, nc, pc == 0 && !acc)
			}
		}
		PutFloats(ap)
		PutFloats(bp)
		return
	}

	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			packB(bp, b, transB, pc, kc, jc, nc)

			var next atomic.Int64
			var wg sync.WaitGroup
			wg.Add(nw)
			for w := 0; w < nw; w++ {
				go func() {
					defer wg.Done()
					ap := getFloatsRaw(gemmMR * kc)
					for {
						lo := int(next.Add(gemmClaimPanels)) - gemmClaimPanels
						if lo >= mpanels {
							break
						}
						hi := min(lo+gemmClaimPanels, mpanels)
						gemmSweep(out, a, g, transA, ap, bp, lo, hi, m, pc, kc, jc, nc, pc == 0 && !acc)
					}
					PutFloats(ap)
				}()
			}
			wg.Wait()
		}
	}
	PutFloats(bp)
}

// panel is one mr-row slice of op(a) over one k-slice as the micro-kernel
// reads it: element (i, p) is a[i*rs+p*cs], or a[row[i]+col[p]] when col is
// set (the assembly only; the reference kernel is handed packed panels).
type panel struct {
	a        []float64
	rs, cs   int
	row, col []int
}

// gemmSweep runs the micro-kernel over output row panels [lo, hi) for one
// (pc, jc) cache block, sweeping each mr-row slice of op(a) across the
// nr-wide packed-B panels. A full panel of a non-transposed or a gathered a
// is read where it lies — a conv GEMM's 8..32 output columns would use a
// packed copy for one to four tiles; transposed a (a gather per k step),
// zero-padded edge panels and every gathered panel without the assembly are
// packed into ap.
func gemmSweep(out, a *Dense, g Gathered, transA bool, ap, bp []float64, lo, hi, m, pc, kc, jc, nc int, first bool) {
	fma := fmaEnabled()
	npanels := (nc + gemmNR - 1) / gemmNR
	var pa panel // set field by field: a composite literal per panel is a block copy
	for ip := lo; ip < hi; ip++ {
		i0 := ip * gemmMR
		rows := min(gemmMR, m-i0)
		switch {
		case a == nil && useAsm && rows == gemmMR:
			pa.a, pa.row, pa.col = g.Data, g.Row[i0:i0+gemmMR], g.Col[pc:pc+kc]
		case a == nil:
			packGathered(ap, g, i0, rows, pc, kc)
			pa.a, pa.rs, pa.cs, pa.col = ap, 1, gemmMR, nil
		case !transA && rows == gemmMR:
			pa.a, pa.rs, pa.cs = a.data[i0*a.cols+pc:], a.cols, 1
		default:
			packA(ap, a, transA, i0, rows, pc, kc)
			pa.a, pa.rs, pa.cs = ap, 1, gemmMR
		}
		for jp := 0; jp < npanels; jp++ {
			j0 := jp * gemmNR
			microTile(out, fma, first, &pa, bp[jp*kc*gemmNR:(jp+1)*kc*gemmNR],
				kc, i0, jc+j0, rows, min(gemmNR, nc-j0))
		}
	}
}

// packB copies the kc×nc block of op(b) at (pc, jc) into nr-interleaved
// column panels: panel jp holds block columns [jp*nr, jp*nr+nr) as
// bp[jp*kc*nr + p*nr + jj] = op(b)[pc+p, jc+jp*nr+jj], zero-padded past the
// matrix edge so the micro-kernel is branch-free.
func packB(bp []float64, b *Dense, transB bool, pc, kc, jc, nc int) {
	npanels := (nc + gemmNR - 1) / gemmNR
	for jp := 0; jp < npanels; jp++ {
		j0 := jc + jp*gemmNR
		cols := min(gemmNR, jc+nc-j0)
		panel := bp[jp*kc*gemmNR : (jp+1)*kc*gemmNR]
		if !transB {
			// op(b)[p, j] = b[p, j]: gather a short row slice per p.
			for p := 0; p < kc; p++ {
				src := b.data[(pc+p)*b.cols+j0 : (pc+p)*b.cols+j0+cols]
				dst := panel[p*gemmNR : p*gemmNR+gemmNR]
				copy(dst, src)
				for jj := cols; jj < gemmNR; jj++ {
					dst[jj] = 0
				}
			}
		} else {
			// op(b)[p, j] = b[j, p]: stream nr rows of b in parallel.
			for jj := 0; jj < cols; jj++ {
				src := b.data[(j0+jj)*b.cols+pc : (j0+jj)*b.cols+pc+kc]
				for p := 0; p < kc; p++ {
					panel[p*gemmNR+jj] = src[p]
				}
			}
			for jj := cols; jj < gemmNR; jj++ {
				for p := 0; p < kc; p++ {
					panel[p*gemmNR+jj] = 0
				}
			}
		}
	}
}

// packA copies rows [i0, i0+rows), k-slice [pc, pc+kc) of op(a)
// mr-interleaved: ap[p*mr + ii] = op(a)[i0+ii, pc+p], zero-padded to mr
// rows.
func packA(ap []float64, a *Dense, transA bool, i0, rows, pc, kc int) {
	if rows < gemmMR {
		clear(ap[:kc*gemmMR])
	}
	if !transA {
		for ii := 0; ii < rows; ii++ {
			src := a.data[(i0+ii)*a.cols+pc : (i0+ii)*a.cols+pc+kc]
			for p, v := range src {
				ap[p*gemmMR+ii] = v
			}
		}
		return
	}
	// op(a)[i, p] = a[p, i]: mr adjacent columns per row p.
	for p := 0; p < kc; p++ {
		src := a.data[(pc+p)*a.cols+i0 : (pc+p)*a.cols+i0+rows]
		dst := ap[p*gemmMR : p*gemmMR+gemmMR]
		if rows == gemmMR {
			dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], src[3]
			continue
		}
		copy(dst, src)
	}
}

// packGathered is packA for rows [i0, i0+rows), k-slice [pc, pc+kc) of g.
func packGathered(ap []float64, g Gathered, i0, rows, pc, kc int) {
	if rows < gemmMR {
		clear(ap[:kc*gemmMR])
	}
	for ii, r := range g.Row[i0 : i0+rows] {
		for p, c := range g.Col[pc : pc+kc] {
			ap[p*gemmMR+ii] = g.Data[r+c]
		}
	}
}

// microTile computes the mr×nr output block at (i0, j0) for one k-slice.
// The contract is per element: an accumulator starts at +0, takes
// op(a)[i,p]*op(b)[p,j] for p ascending with one product and one sum
// rounding (or one fused rounding in the FMA family), and is then added as
// out + acc, with out read as +0 on the first slice (not a plain
// assignment: a fused sum of underflowing products can be -0). bp is
// zero-padded to nr columns and a packed edge panel of a to mr rows, so only
// the store is masked. The assembly writes full tiles straight into out and
// edge tiles through a stack tile.
func microTile(out *Dense, fma, first bool, a *panel, bp []float64, kc, i0, j0, rows, cols int) {
	if useAsm && rows == gemmMR && cols == gemmNR {
		asmTile(fma, first, kc, a, bp, &out.data[i0*out.cols+j0], out.cols)
		return
	}
	var acc [gemmMR][gemmNR]float64
	if useAsm {
		asmTile(fma, true, kc, a, bp, &acc[0][0], gemmNR)
	} else {
		kernelRef(&acc, fma, kc, a.a, a.rs, a.cs, bp)
	}
	for ii := 0; ii < rows; ii++ {
		orow := out.data[(i0+ii)*out.cols+j0:][:cols]
		if first {
			clear(orow)
		}
		for jj := range orow {
			orow[jj] += acc[ii][jj]
		}
	}
}

// asmTile runs the AVX2 kernel that reads a's addressing form.
func asmTile(fma, assign bool, kc int, a *panel, bp []float64, c *float64, ldc int) {
	if a.col != nil {
		kernel4x8g(fma, assign, kc, &a.a[0], &a.row[0], &a.col[0], &bp[0], c, ldc)
		return
	}
	kernel4x8(fma, assign, kc, &a.a[0], a.rs, a.cs, &bp[0], c, ldc)
}

// kernelRef is the pure-Go micro-kernel: the fallback where there is no
// assembly and the oracle the assembly is tested against. It walks the
// mr×nr tile as 2×4 sub-tiles so the accumulators stay in registers. The
// explicit float64 conversion keeps the compiler from fusing the mul+add
// family's product and sum (as it does on arm64 and under GOAMD64=v3).
func kernelRef(acc *[gemmMR][gemmNR]float64, fma bool, kc int, a []float64, rs, cs int, bp []float64) {
	for i := 0; i < gemmMR; i += 2 {
		for j := 0; j < gemmNR; j += 4 {
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			ia, ib := i*rs, j
			if fma {
				for p := 0; p < kc; p++ {
					a0, a1 := a[ia], a[ia+rs]
					b0, b1, b2, b3 := bp[ib], bp[ib+1], bp[ib+2], bp[ib+3]
					c00 = math.FMA(a0, b0, c00)
					c01 = math.FMA(a0, b1, c01)
					c02 = math.FMA(a0, b2, c02)
					c03 = math.FMA(a0, b3, c03)
					c10 = math.FMA(a1, b0, c10)
					c11 = math.FMA(a1, b1, c11)
					c12 = math.FMA(a1, b2, c12)
					c13 = math.FMA(a1, b3, c13)
					ia, ib = ia+cs, ib+gemmNR
				}
			} else {
				for p := 0; p < kc; p++ {
					a0, a1 := a[ia], a[ia+rs]
					b0, b1, b2, b3 := bp[ib], bp[ib+1], bp[ib+2], bp[ib+3]
					c00 += float64(a0 * b0)
					c01 += float64(a0 * b1)
					c02 += float64(a0 * b2)
					c03 += float64(a0 * b3)
					c10 += float64(a1 * b0)
					c11 += float64(a1 * b1)
					c12 += float64(a1 * b2)
					c13 += float64(a1 * b3)
					ia, ib = ia+cs, ib+gemmNR
				}
			}
			acc[i][j], acc[i][j+1], acc[i][j+2], acc[i][j+3] = c00, c01, c02, c03
			acc[i+1][j], acc[i+1][j+1], acc[i+1][j+2], acc[i+1][j+3] = c10, c11, c12, c13
		}
	}
}

// gemmRows computes rows [lo,hi) of out += a*b for row-major a, b (the
// small-shape ikj fallback; out must be pre-zeroed).
func gemmRows(out, a, b *Dense, lo, hi int) {
	n, k := b.cols, a.cols
	for i := lo; i < hi; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			axpy(orow, brow, av)
		}
	}
}

// axpy computes dst += s*src with one product and one sum rounding per
// element (one fused rounding in the FMA family); the AVX2 routine and the
// 4-way unrolled Go loops round identically. The explicit conversion keeps
// the compiler from fusing the mul+add family, as in kernelRef.
func axpy(dst, src []float64, s float64) {
	src = src[:len(dst)]
	switch fma := fmaEnabled(); {
	case useAsm:
		axpyAVX2(fma, dst, src, s)
		return
	case fma:
		axpyFMA(dst, src, s)
		return
	}
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += float64(s * src[i])
		dst[i+1] += float64(s * src[i+1])
		dst[i+2] += float64(s * src[i+2])
		dst[i+3] += float64(s * src[i+3])
	}
	for ; i < n; i++ {
		dst[i] += float64(s * src[i])
	}
}

// MulVec returns a*x for a vector x (len = a.cols).
func MulVec(a *Dense, x []float64) []float64 {
	out := make([]float64, a.rows)
	MulVecInto(out, a, x)
	return out
}

// MulVecInto sets dst = a*x without allocating. dst must not alias x.
func MulVecInto(dst []float64, a *Dense, x []float64) {
	if len(x) != a.cols {
		panic("mat: MulVec dimension mismatch")
	}
	if len(dst) != a.rows {
		panic("mat: MulVecInto destination length mismatch")
	}
	dotBlock(dst, len(dst), x, 0, 1, a.data, a.cols, a.rows, a.cols)
}

// MulVecT returns aᵀ*x for a vector x (len = a.rows).
func MulVecT(a *Dense, x []float64) []float64 {
	out := make([]float64, a.cols)
	MulVecTInto(out, a, x)
	return out
}

// MulVecTInto sets dst = aᵀ*x without allocating. dst must not alias x.
func MulVecTInto(dst []float64, a *Dense, x []float64) {
	if len(x) != a.rows {
		panic("mat: MulVecT dimension mismatch")
	}
	if len(dst) != a.cols {
		panic("mat: MulVecTInto destination length mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		axpy(dst, a.Row(i), x[i])
	}
}

// dotBlock sets out[i*ldo+j] = Dot(x[i*ldx:][:k], y[j*ldy:][:k]) for i < nx
// and j < ny, bit for bit: every element is its own Dot, so neither the
// tiling here nor any partition of the block above it is numerics. The AVX2
// tile takes two x rows against four y rows (one x row when nx is odd, and
// for a shared vector); the ny mod 4 last columns, k < 4, and everything
// without the assembly go through Dot.
func dotBlock(out []float64, ldo int, x []float64, ldx, nx int, y []float64, ldy, ny, k int) {
	tiled := 0
	if useAsm && k >= 4 && nx > 0 && ny >= 4 {
		tiled = ny &^ 3
		// The assembly checks no bounds: the last element of each operand it
		// will touch must exist.
		_, _, _ = x[(nx-1)*ldx+k-1], y[(tiled-1)*ldy+k-1], out[(nx-1)*ldo+tiled-1]
		fma := fmaEnabled()
		for i := 0; i < nx; i += 2 {
			for j := 0; j < tiled; j += 4 {
				dotTileAVX2(fma, min(2, nx-i), k, &x[i*ldx], ldx, &y[j*ldy], ldy, &out[i*ldo+j], ldo)
			}
		}
	}
	for i := 0; i < nx; i++ {
		xi := x[i*ldx:][:k]
		for j := tiled; j < ny; j++ {
			out[i*ldo+j] = Dot(xi, y[j*ldy:][:k])
		}
	}
}

// Dot returns the dot product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	if fmaEnabled() {
		return dotFMA(x, y)
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

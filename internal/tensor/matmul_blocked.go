package tensor

// Cache-blocked / register-tiled matmul kernels. These are what the public
// MatMulSlice family dispatches to; the naive kernels in matmul.go remain
// as the bit-level reference. See matmul.go for the accumulation-order rule
// that keeps the two families bit-identical: per output element, the same
// serial chain of explicitly rounded multiply-adds over ascending k, with
// the same zero-term skips.
//
// The tiling strategy is register reuse, not k-splitting:
//
//   - a·b and aᵀ·b (k-major accumulation into dst) process k-terms four at
//     a time, holding each dst element in a register across the quad — one
//     load/store of dst per four terms instead of per term.
//   - a·bᵀ (dot-product form) computes four output columns per pass over a
//     row of a, so each a element is loaded once per four dots.
//
// A quad that contains a zero a-term falls back to the reference per-term
// loop for that quad, preserving the skip set exactly.
//
// On amd64 with AVX2 each kernel first hands off to its assembly twin in
// matmul_avx2_amd64.s (useAVX2); the Go code below is the fallback for
// other targets, older CPUs and the purego build tag.

// axpyRow computes dst[j] += av*b[j] for one row — the reference inner loop
// shared by the naive kernels, the blocked tails, and the zero-skip
// fallbacks, so every path issues the identical op sequence.
func axpyRow(dst, b []float64, av float64) {
	for j, bv := range b {
		t := av * bv
		dst[j] += t
	}
}

// matmulBlocked computes dst = a·b for a (m×k), b (k×n).
func matmulBlocked(dst, a, b []float64, m, k, n int) {
	if useAVX2 {
		matmulAVX2(dst, a, b, m, k, n)
		return
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		matmulRowBlocked(drow, arow, b, k, n)
	}
}

// matmulRowBlocked accumulates one output row of an a·b product:
// drow += arow·b with the quad-of-k register tiling.
func matmulRowBlocked(drow, arow, b []float64, k, n int) {
	p := 0
	for ; p+4 <= k; p += 4 {
		a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
		if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
			for q := p; q < p+4; q++ {
				if av := arow[q]; av != 0 {
					axpyRow(drow, b[q*n:(q+1)*n], av)
				}
			}
			continue
		}
		b0 := b[p*n : (p+1)*n]
		b1 := b[(p+1)*n : (p+2)*n]
		b2 := b[(p+2)*n : (p+3)*n]
		b3 := b[(p+3)*n : (p+4)*n]
		for j := range drow {
			v := drow[j]
			t0 := a0 * b0[j]
			v += t0
			t1 := a1 * b1[j]
			v += t1
			t2 := a2 * b2[j]
			v += t2
			t3 := a3 * b3[j]
			v += t3
			drow[j] = v
		}
	}
	for ; p < k; p++ {
		if av := arow[p]; av != 0 {
			axpyRow(drow, b[p*n:(p+1)*n], av)
		}
	}
}

// matmulTBlocked computes dst = a·bᵀ for a (m×k), b (n×k): four dot
// products share each pass over a row of a.
func matmulTBlocked(dst, a, b []float64, m, k, n int) {
	if useAVX2 {
		matmulTAVX2(dst, a, b, m, k, n)
		return
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				t0 := av * b0[p]
				s0 += t0
				t1 := av * b1[p]
				s1 += t1
				t2 := av * b2[p]
				s2 += t2
				t3 := av * b3[p]
				s3 += t3
			}
			drow[j] = s0
			drow[j+1] = s1
			drow[j+2] = s2
			drow[j+3] = s3
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				t := av * brow[p]
				s += t
			}
			drow[j] = s
		}
	}
}

// tmatmulBlocked computes dst = aᵀ·b for a (k×m), b (k×n): quads of k rows
// are fused so each dst row is loaded once per four terms.
func tmatmulBlocked(dst, a, b []float64, k, m, n int) {
	if useAVX2 {
		tmatmulAVX2(dst, a, b, k, m, n)
		return
	}
	for i := range dst {
		dst[i] = 0
	}
	p := 0
	for ; p+4 <= k; p += 4 {
		a0 := a[p*m : (p+1)*m]
		a1 := a[(p+1)*m : (p+2)*m]
		a2 := a[(p+2)*m : (p+3)*m]
		a3 := a[(p+3)*m : (p+4)*m]
		b0 := b[p*n : (p+1)*n]
		b1 := b[(p+1)*n : (p+2)*n]
		b2 := b[(p+2)*n : (p+3)*n]
		b3 := b[(p+3)*n : (p+4)*n]
		for i := 0; i < m; i++ {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			drow := dst[i*n : (i+1)*n]
			if v0 == 0 || v1 == 0 || v2 == 0 || v3 == 0 {
				if v0 != 0 {
					axpyRow(drow, b0, v0)
				}
				if v1 != 0 {
					axpyRow(drow, b1, v1)
				}
				if v2 != 0 {
					axpyRow(drow, b2, v2)
				}
				if v3 != 0 {
					axpyRow(drow, b3, v3)
				}
				continue
			}
			for j := range drow {
				v := drow[j]
				t0 := v0 * b0[j]
				v += t0
				t1 := v1 * b1[j]
				v += t1
				t2 := v2 * b2[j]
				v += t2
				t3 := v3 * b3[j]
				v += t3
				drow[j] = v
			}
		}
	}
	for ; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i, av := range arow {
			if av != 0 {
				axpyRow(dst[i*n:(i+1)*n], brow, av)
			}
		}
	}
}

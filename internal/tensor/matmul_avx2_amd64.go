//go:build !purego

package tensor

import "sync"

// AVX2 versions of the three blocked kernels. Each output column is one
// vector lane running the scalar kernels' exact chain (separate VMULPD and
// VADDPD, ascending k, same zero skips), so they are bit-identical to the
// Go kernels by construction; see the accumulation-order rule in matmul.go
// and DESIGN §11.

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves YMM
// state across context switches. Detected once at start-up.
var hasAVX2 = detectAVX2()

// useAVX2 selects the assembly kernels. It starts equal to hasAVX2; tests
// clear it to run the Go fallback on the same machine.
var useAVX2 = hasAVX2

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves SSE and upper-YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// gemmAVX2 accumulates, for i < m and j < n,
//
//	dst[i*ldd+j] += Σ_{p<k} a[i*lda+p*sa] · B(p, j)
//
// one serial chain per element over ascending p, where B(p, j) lives at
// b[p*ldb + (j/4)*vs + j%4]: vs = 4 reads a row-major b, vs = 4·kc reads
// the k-interleaved panels of packPanels. With skip set, terms whose a
// value is ±0 are skipped. Columns run in 16-wide strips of four YMM
// accumulators; the last partial strip uses masked loads and stores.
//
//go:noescape
func gemmAVX2(dst, a, b *float64, m, k, n, ldd, lda, sa, ldb, vs int, skip bool)

// packPanelsAVX2 packs quads·4 columns of `panels` groups of four b rows
// (row stride ldb) into k-interleaved panels pstride elements apart.
//
//go:noescape
func packPanelsAVX2(dst, b *float64, panels, quads, ldb, pstride int)

func matmulAVX2(dst, a, b []float64, m, k, n int) {
	clear(dst)
	if m == 0 || k == 0 || n == 0 {
		return
	}
	gemmAVX2(&dst[0], &a[0], &b[0], m, k, n, n, k, 1, n, 4, true)
}

func tmatmulAVX2(dst, a, b []float64, k, m, n int) {
	clear(dst)
	if m == 0 || k == 0 || n == 0 {
		return
	}
	gemmAVX2(&dst[0], &a[0], &b[0], m, k, n, n, 1, m, n, 4, true)
}

// panelFloats bounds the panel scratch (64 KiB); panelCols bounds the
// columns packed at once so a k-chunk stays at least 64 terms long.
const (
	panelFloats = 8192
	panelCols   = 128
)

var panelPool = sync.Pool{New: func() any { return new([panelFloats]float64) }}

// matmulTAVX2 computes dst = a·bᵀ. The dot form has no contiguous run of
// output columns in b, so b's rows are first packed four at a time into
// k-interleaved panels (column j of the packed block is b row j), in
// k-chunks bounded by panelFloats. Each chunk continues every element's
// chain from the value the previous chunk stored — a store and reload of
// a float64 is exact, so no chain is ever split into partial sums.
func matmulTAVX2(dst, a, b []float64, m, k, n int) {
	clear(dst)
	if m == 0 || k == 0 || n == 0 {
		return
	}
	buf := panelPool.Get().(*[panelFloats]float64)
	for j0 := 0; j0 < n; j0 += panelCols {
		nb := min(panelCols, n-j0)
		slots := (nb + 3) &^ 3
		kc := min(k, panelFloats/slots)
		for p0 := 0; p0 < k; p0 += kc {
			kk := min(kc, k-p0)
			packPanels(buf[:slots*kk], b, j0, nb, k, p0, kk)
			gemmAVX2(&dst[j0], &a[p0], &buf[0], m, kk, nb, n, k, 1, 4, 4*kk, false)
		}
	}
	panelPool.Put(buf)
}

// packPanels writes columns p0..p0+kc of b rows j0..j0+nb as panels:
// panel q holds rows j0+4q..j0+4q+3, element (p, c) at q*4*kc + p*4 + c.
// Full panels pack their k-quads in assembly; the k remainder and a final
// partial panel are packed here. Lanes past nb are left as they are: the
// kernel's tail strip masks them out.
func packPanels(buf, b []float64, j0, nb, k, p0, kc int) {
	full, quads := nb/4, kc/4
	if full > 0 && quads > 0 {
		packPanelsAVX2(&buf[0], &b[j0*k+p0], full, quads, k, 4*kc)
	}
	for q := 0; q < (nb+3)/4; q++ {
		lo := quads * 4
		if q == full {
			lo = 0
		}
		panel := buf[q*4*kc : (q+1)*4*kc]
		for c := 0; c < 4 && 4*q+c < nb; c++ {
			row := b[(j0+4*q+c)*k+p0 : (j0+4*q+c)*k+p0+kc]
			for p := lo; p < kc; p++ {
				panel[p*4+c] = row[p]
			}
		}
	}
}

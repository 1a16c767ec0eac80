//go:build !amd64 || purego

package tensor

// Without the amd64 assembly (other architectures, or the purego build
// tag) the blocked Go kernels are the only implementation. The names
// below keep the dispatch in matmul_blocked.go and its tests compiling.

const hasAVX2 = false

var useAVX2 = false

func matmulAVX2(dst, a, b []float64, m, k, n int)  { panic("tensor: no AVX2 kernels in this build") }
func tmatmulAVX2(dst, a, b []float64, k, m, n int) { panic("tensor: no AVX2 kernels in this build") }
func matmulTAVX2(dst, a, b []float64, m, k, n int) { panic("tensor: no AVX2 kernels in this build") }

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oddShapes exercises every tail path of the blocked kernels: quads with
// remainders in every dimension, degenerate 1-wide products, and sizes
// straddling the 4-wide tile boundary.
var oddShapes = [][3]int{
	{1, 1, 1}, {1, 4, 1}, {2, 3, 5}, {3, 7, 2}, {5, 5, 5},
	{4, 4, 4}, {7, 8, 13}, {8, 16, 8}, {13, 17, 3}, {16, 15, 17},
	{17, 1, 9}, {3, 13, 16},
}

// fillCases generates operand fillings that stress the bit-identity
// guarantee: dense gaussians, zero-heavy slices (exercising the skip-set
// rule), and values spanning wildly different magnitudes (where any
// accumulation-order change shows up in the low bits).
func fillCases(rng *rand.Rand, dst []float64, mode int) {
	switch mode {
	case 0:
		for i := range dst {
			dst[i] = rng.NormFloat64()
		}
	case 1:
		for i := range dst {
			if rng.Intn(3) == 0 {
				dst[i] = 0
			} else {
				dst[i] = rng.NormFloat64()
			}
		}
	case 2:
		for i := range dst {
			dst[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(80)-40))
		}
	}
}

// bitEqual fails unless got and want hold the same float64 bits, except
// that any NaN matches any NaN. NaN payloads are outside the
// accumulation-order rule: when two NaNs meet, x86 returns the first
// operand's payload, and the Go compiler picks operand order for
// commutative ops freely (it even mixes orders within one of the blocked
// kernels' chains), so no two kernels could be held to one payload.
func bitEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %x (%v), want %x (%v)",
				label, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// kernelPaths runs fn once per implementation behind the blocked kernel
// names: the Go fallback always, the AVX2 assembly when the CPU has it.
func kernelPaths(t *testing.T, fn func(t *testing.T)) {
	paths := []struct {
		name string
		avx2 bool
	}{{"go", false}, {"avx2", true}}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			if p.avx2 && !hasAVX2 {
				t.Skip("CPU or build has no AVX2 kernels")
			}
			defer func(prev bool) { useAVX2 = prev }(useAVX2)
			useAVX2 = p.avx2
			fn(t)
		})
	}
}

// fillSpecials fills dst like fillCases mode 0 but sprinkles ±Inf, NaN and
// −0 over about a quarter of the elements.
func fillSpecials(rng *rand.Rand, dst []float64) {
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	for i := range dst {
		if rng.Intn(4) == 0 {
			dst[i] = specials[rng.Intn(len(specials))]
		} else {
			dst[i] = rng.NormFloat64()
		}
	}
}

// offsetSlice returns a length-n slice that starts one element into its
// backing array, so vector loads and stores through it are unaligned.
func offsetSlice(n int, offset bool) []float64 {
	if !offset {
		return make([]float64, n)
	}
	return make([]float64, n+1)[1:]
}

// checkAllForms runs the three blocked product forms on one shape and
// compares each bit for bit with its naive reference. aMode and bMode pick
// fillCases modes; bMode 3 is fillSpecials. dst starts as garbage, since
// every kernel must write over its previous contents.
func checkAllForms(t *testing.T, rng *rand.Rand, m, k, n, aMode, bMode int, offset bool) {
	t.Helper()
	fill := func(dst []float64, mode int) []float64 {
		if mode == 3 {
			fillSpecials(rng, dst)
		} else {
			fillCases(rng, dst, mode)
		}
		return dst
	}
	a := fill(offsetSlice(m*k, offset), aMode)
	b := fill(offsetSlice(k*n, offset), bMode)
	bt := fill(offsetSlice(n*k, offset), bMode)
	want := make([]float64, m*n)
	got := offsetSlice(m*n, offset)
	label := func(form string) string {
		return fmt.Sprintf("%s %dx%dx%d fill a%d/b%d offset=%v", form, m, k, n, aMode, bMode, offset)
	}

	fillCases(rng, got, 0)
	matmulNaive(want, a, b, m, k, n)
	matmulBlocked(got, a, b, m, k, n)
	bitEqual(t, label("matmul"), got, want)

	fillCases(rng, got, 0)
	matmulTNaive(want, a, bt, m, k, n)
	matmulTBlocked(got, a, bt, m, k, n)
	bitEqual(t, label("matmulT"), got, want)

	// a's m×k storage read as the k×m operand of aᵀ·b.
	fillCases(rng, got, 0)
	tmatmulNaive(want, a, b, k, m, n)
	tmatmulBlocked(got, a, b, k, m, n)
	bitEqual(t, label("tmatmul"), got, want)
}

// TestBlockedKernelsBitIdentical pins the accumulation-order rule from
// matmul.go: the kernels the public API dispatches to — the blocked Go
// loops and, where available, their AVX2 twins — must be bit-identical to
// the naive reference loops, for all three product forms. The sweep covers
// every vector-tail length (n = 1…17), short and release-sized k,
// zero-heavy a, non-finite and −0 b values, and unaligned slices.
func TestBlockedKernelsBitIdentical(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, sh := range oddShapes {
			for mode := 0; mode < 3; mode++ {
				checkAllForms(t, rng, sh[0], sh[1], sh[2], mode, mode, false)
			}
		}
		ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 54, 216}
		for n := 1; n <= 17; n++ {
			for _, k := range ks {
				m := 1 + (n+k)%5
				for _, offset := range []bool{false, true} {
					checkAllForms(t, rng, m, k, n, 0, 0, offset)
					checkAllForms(t, rng, m, k, n, 1, 2, offset)
					checkAllForms(t, rng, m, k, n, 1, 3, offset)
				}
			}
		}
		// Release conv GEMM shapes, and n wide enough for several full
		// 16-column strips plus a tail.
		for _, sh := range [][3]int{{6, 54, 144}, {12, 108, 36}, {24, 216, 9}, {3, 9, 53}, {2, 300, 133}} {
			checkAllForms(t, rng, sh[0], sh[1], sh[2], 1, 3, true)
		}
	})
}

// TestBlockedZeroSkipInfinity pins the hazard the skip-set rule exists for:
// a zero a-term against an ±Inf b-term must be skipped (not producing NaN)
// in the blocked kernels exactly as in the naive ones.
func TestBlockedZeroSkipInfinity(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		m, k, n := 3, 7, 5
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		rng := rand.New(rand.NewSource(42))
		for i := range a {
			if i%3 == 0 {
				a[i] = 0
			} else {
				a[i] = rng.NormFloat64()
			}
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		// Place ±Inf in b rows that zero a-terms hit.
		b[0*n+2] = math.Inf(1)
		b[3*n+4] = math.Inf(-1)

		want := make([]float64, m*n)
		got := make([]float64, m*n)
		matmulNaive(want, a, b, m, k, n)
		matmulBlocked(got, a, b, m, k, n)
		bitEqual(t, "matmul inf", got, want)
		if hasNaN(got) {
			t.Fatal("matmul: zero a-term multiplied through an infinite b-term")
		}

		at := make([]float64, k*m)
		copy(at, a[:k*m])
		tmatmulNaive(want, at, b, k, m, n)
		tmatmulBlocked(got, at, b, k, m, n)
		bitEqual(t, "tmatmul inf", got, want)
	})
}

func hasNaN(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// FuzzMatMulKernels drives all three product forms over fuzzer-chosen
// shapes (zero sizes included) and values, comparing the Go fallback and
// the AVX2 kernels bit for bit with the naive references. Each data byte
// picks one element's value: ±0, ±Inf, NaN with a payload, a subnormal, a
// huge magnitude, or a gaussian from a rand seeded by the data.
func FuzzMatMulKernels(f *testing.F) {
	f.Add(uint8(6), uint8(54), uint8(144), []byte{0, 7, 9, 200, 13})
	f.Add(uint8(24), uint8(216), uint8(9), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), uint8(1), uint8(17), []byte{})
	f.Fuzz(func(t *testing.T, mb, kb, nb uint8, data []byte) {
		m, k, n := int(mb)%13, int(kb), int(nb)%40
		seed := int64(len(data))
		for _, c := range data {
			seed = seed*131 + int64(c)
		}
		rng := rand.New(rand.NewSource(seed))
		fill := func(dst []float64, salt int) {
			for i := range dst {
				c := byte(rng.Intn(256))
				if len(data) > 0 {
					c = data[(i*7+salt)%len(data)]
				}
				switch c % 12 {
				case 0:
					dst[i] = 0
				case 1:
					dst[i] = math.Copysign(0, -1)
				case 2:
					dst[i] = math.Inf(1)
				case 3:
					dst[i] = math.Inf(-1)
				case 4:
					dst[i] = math.Float64frombits(0x7ff8000000000000 | uint64(c))
				case 5:
					dst[i] = math.SmallestNonzeroFloat64 * float64(c)
				case 6:
					dst[i] = 1e300 * float64(int(c)-128)
				default:
					dst[i] = rng.NormFloat64()
				}
			}
		}
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		bt := make([]float64, n*k)
		fill(a, 0)
		fill(b, 1)
		fill(bt, 2)
		want := make([]float64, m*n)
		forms := []struct {
			name           string
			naive, blocked func(dst []float64)
		}{
			{"matmul", func(d []float64) { matmulNaive(d, a, b, m, k, n) }, func(d []float64) { matmulBlocked(d, a, b, m, k, n) }},
			{"matmulT", func(d []float64) { matmulTNaive(d, a, bt, m, k, n) }, func(d []float64) { matmulTBlocked(d, a, bt, m, k, n) }},
			{"tmatmul", func(d []float64) { tmatmulNaive(d, a, b, k, m, n) }, func(d []float64) { tmatmulBlocked(d, a, b, k, m, n) }},
		}
		defer func(prev bool) { useAVX2 = prev }(useAVX2)
		for _, form := range forms {
			form.naive(want)
			for _, avx2 := range []bool{false, true} {
				if avx2 && !hasAVX2 {
					continue
				}
				useAVX2 = avx2
				got := make([]float64, m*n)
				fillCases(rng, got, 0)
				form.blocked(got)
				bitEqual(t, fmt.Sprintf("%s %dx%dx%d avx2=%v", form.name, m, k, n, avx2), got, want)
			}
		}
	})
}

// quantize rounds a dense slice onto a small codebook, returning the lut,
// indices, and the dequantized values lut[idx[i]] the LUT kernels must
// reproduce bit-for-bit.
func quantizeForTest(rng *rand.Rand, vals []float64, levels int) (lut []float64, idx []uint8, deq []float64) {
	lut = make([]float64, levels)
	for i := range lut {
		lut[i] = rng.NormFloat64()
	}
	lut[0] = 0 // ensure the zero-skip path is exercised
	idx = make([]uint8, len(vals))
	deq = make([]float64, len(vals))
	for i := range vals {
		idx[i] = uint8(rng.Intn(levels))
		deq[i] = lut[idx[i]]
	}
	return lut, idx, deq
}

// TestLUTKernelsBitIdentical pins the codebook kernels to the naive loops
// over the dequantized weights — the invariant that makes codebook-native
// serving score-identical to the dequantized forward pass.
func TestLUTKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, sh := range oddShapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, levels := range []int{2, 8, 256} {
			// Conv form: dst = W·b with W quantized.
			wlut, widx, wdeq := quantizeForTest(rng, make([]float64, m*k), levels)
			b := make([]float64, k*n)
			fillCases(rng, b, 0)
			want := make([]float64, m*n)
			got := make([]float64, m*n)
			matmulNaive(want, wdeq, b, m, k, n)
			MatMulWSlice(got, CodebookWeights(wlut, widx), b, m, k, n)
			bitEqual(t, "lutMatMul", got, want)

			// Dense form: dst = a·Wᵀ with W (n×k) quantized.
			tlut, tidx, tdeq := quantizeForTest(rng, make([]float64, n*k), levels)
			a := make([]float64, m*k)
			fillCases(rng, a, 2)
			matmulTNaive(want, a, tdeq, m, k, n)
			MatMulTWSlice(got, a, CodebookWeights(tlut, tidx), m, k, n)
			bitEqual(t, "lutMatMulT", got, want)
		}
	}
}

// TestDenseWeightsDispatchMatchesSlice pins the dense view path to the plain
// slice entry points — the "default backend is byte-identical" contract.
func TestDenseWeightsDispatchMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, k, n := 5, 13, 7
	w := make([]float64, m*k)
	b := make([]float64, k*n)
	fillCases(rng, w, 0)
	fillCases(rng, b, 0)
	want := make([]float64, m*n)
	got := make([]float64, m*n)
	MatMulSlice(want, w, b, m, k, n)
	MatMulWSlice(got, DenseWeights(w), b, m, k, n)
	bitEqual(t, "dense W dispatch", got, want)

	wt := make([]float64, n*k)
	a := make([]float64, m*k)
	fillCases(rng, wt, 0)
	fillCases(rng, a, 0)
	MatMulTSlice(want, a, wt, m, k, n)
	MatMulTWSlice(got, a, DenseWeights(wt), m, k, n)
	bitEqual(t, "dense Wᵀ dispatch", got, want)
}

func TestWeightsAccessors(t *testing.T) {
	d := DenseWeights([]float64{1, 2, 3})
	if !d.IsDense() || d.Len() != 3 || d.Bytes() != 24 || d.At(2) != 3 {
		t.Fatalf("dense view accessors wrong: len=%d bytes=%d", d.Len(), d.Bytes())
	}
	c := CodebookWeights([]float64{0, 0.5}, []uint8{1, 0, 1, 1})
	if c.IsDense() || c.Len() != 4 || c.Bytes() != 4+16 || c.At(0) != 0.5 {
		t.Fatalf("codebook view accessors wrong: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	out := make([]float64, 4)
	c.Materialize(out)
	wantEq(t, out, []float64{0.5, 0, 0.5, 0.5})
}

func TestCodebookWeightsValidation(t *testing.T) {
	t.Run("empty lut", func(t *testing.T) {
		defer expectPanic(t, "empty lut")
		CodebookWeights(nil, []uint8{0})
	})
	t.Run("index out of range", func(t *testing.T) {
		defer expectPanic(t, "index range")
		CodebookWeights([]float64{1, 2}, []uint8{0, 2})
	})
	t.Run("view length mismatch", func(t *testing.T) {
		defer expectPanic(t, "length mismatch")
		MatMulWSlice(make([]float64, 4), CodebookWeights([]float64{1}, []uint8{0, 0, 0}), make([]float64, 4), 2, 2, 2)
	})
}

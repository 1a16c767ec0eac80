package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// im2colRef and col2imRef are the naive bounds-testing loops: every kernel
// tap, every output pixel, an explicit in-bounds test per element. The
// kernels must match them bit for bit, including the order in which
// overlapping taps accumulate.
func im2colRef(d ConvDims, src, dst []float64) {
	j := 0
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				for oy := 0; oy < d.OutH; oy++ {
					for ox := 0; ox < d.OutW; ox++ {
						iy, ix := oy*d.Stride-d.Pad+ky, ox*d.Stride-d.Pad+kx
						v := 0.0
						if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
							v = src[(c*d.InH+iy)*d.InW+ix]
						}
						dst[j] = v
						j++
					}
				}
			}
		}
	}
}

func col2imRef(d ConvDims, src, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	j := 0
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				for oy := 0; oy < d.OutH; oy++ {
					for ox := 0; ox < d.OutW; ox++ {
						iy, ix := oy*d.Stride-d.Pad+ky, ox*d.Stride-d.Pad+kx
						if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
							dst[(c*d.InH+iy)*d.InW+ix] += src[j]
						}
						j++
					}
				}
			}
		}
	}
}

// convGeometries enumerates stride 1–3, pad 0–2, kernels 1–4 (height and
// width independently) and spatial sizes 1–9, keeping those with a
// non-empty output.
func convGeometries() []ConvDims {
	var ds []ConvDims
	for stride := 1; stride <= 3; stride++ {
		for pad := 0; pad <= 2; pad++ {
			for kh := 1; kh <= 4; kh++ {
				for kw := 1; kw <= 4; kw++ {
					for h := 1; h <= 9; h++ {
						for w := 1; w <= 9; w++ {
							if h+2*pad < kh || w+2*pad < kw {
								continue
							}
							ds = append(ds, NewConvDims(2, h, w, 1, kh, kw, stride, pad))
						}
					}
				}
			}
		}
	}
	return ds
}

// edgeFill fills v with random values, a share of them −0 (which must stay
// −0 through Im2Col and must not leak a −0 into Col2Im's +0-seeded sums).
func edgeFill(rng *rand.Rand, v []float64) {
	for i := range v {
		switch rng.Intn(4) {
		case 0:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = rng.NormFloat64()
		}
	}
}

func TestIm2ColCol2ImMatchNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	geoms := convGeometries()
	if len(geoms) < 5000 {
		t.Fatalf("only %d geometries", len(geoms))
	}
	for _, d := range geoms {
		name := fmt.Sprintf("in %dx%d k %dx%d s%d p%d", d.InH, d.InW, d.KH, d.KW, d.Stride, d.Pad)
		x := make([]float64, d.InElems)
		edgeFill(rng, x)
		cols, want := make([]float64, d.ColRows*d.Cols), make([]float64, d.ColRows*d.Cols)
		Im2Col(d, x, cols)
		im2colRef(d, x, want)
		assertSameBits(t, name+": Im2Col", cols, want)

		g := make([]float64, d.ColRows*d.Cols)
		edgeFill(rng, g)
		// Col2Im must clear whatever the destination held before.
		dx, wantDx := make([]float64, d.InElems), make([]float64, d.InElems)
		for i := range dx {
			dx[i] = math.NaN()
		}
		Col2Im(d, g, dx)
		col2imRef(d, g, wantDx)
		assertSameBits(t, name+": Col2Im", dx, wantDx)
	}
}

func assertSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestConvPlanRewritesScratch runs one plan per geometry twice over
// NaN-filled scratch and destination buffers: both must come out matching
// the reference, so no cell a call leaves unwritten can leak into a result.
func TestConvPlanRewritesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range convGeometries() {
		name := fmt.Sprintf("in %dx%d k %dx%d s%d p%d", d.InH, d.InW, d.KH, d.KW, d.Stride, d.Pad)
		p := NewConvPlan(d)
		scratch := make([]float64, p.ScratchLen())
		cols, dx := make([]float64, d.ColRows*d.Cols), make([]float64, d.InElems)
		want, wantDx := make([]float64, len(cols)), make([]float64, len(dx))
		x, g := make([]float64, d.InElems), make([]float64, len(cols))
		for rep := 0; rep < 2; rep++ {
			edgeFill(rng, x)
			edgeFill(rng, g)
			for _, b := range [][]float64{scratch, cols, dx} {
				for i := range b {
					b[i] = math.NaN()
				}
			}
			p.Im2Col(x, cols, scratch)
			im2colRef(d, x, want)
			assertSameBits(t, name+": Im2Col", cols, want)
			for i := range scratch {
				scratch[i] = math.NaN()
			}
			p.Col2Im(g, dx, scratch)
			col2imRef(d, g, wantDx)
			assertSameBits(t, name+": Col2Im", dx, wantDx)
		}
	}
}

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/compute"
	"repro/internal/tensor"
)

// convPass is what one eval forward plus one train forward/backward of a
// Conv2D leaves behind, copied out of the layer's and the context's reused
// buffers.
type convPass struct {
	eval, train, dx, dw, db []float64
}

func runConvPass(ctx *compute.Ctx, c *Conv2D, x, grad *tensor.Tensor) convPass {
	var p convPass
	p.eval = append(p.eval, c.Forward(ctx, x, false).Data()...)
	c.W.ZeroGrad()
	c.B.ZeroGrad()
	p.train = append(p.train, c.Forward(ctx, x, true).Data()...)
	p.dx = append(p.dx, c.Backward(ctx, grad).Data()...)
	p.dw = append(p.dw, c.W.Grad.Data()...)
	p.db = append(p.db, c.B.Grad.Data()...)
	return p
}

// TestConv2DStaleScratchCannotLeak runs a Conv2D on a large-valued input A
// and then on input B on one context, and requires B's outputs and
// gradients to be bit-equal to those of a fresh layer on a fresh context.
// The arenas hand the gather plan's padded-sample scratch back with A's
// values in it, so this fails if any pad cell is not rewritten per call.
func TestConv2DStaleScratchCannotLeak(t *testing.T) {
	geoms := []struct{ inC, h, w, outC, k, stride, pad int }{
		{1, 12, 12, 6, 3, 1, 1},  // stem: Im2Col row runs
		{6, 12, 12, 12, 3, 2, 1}, // stride 2: padded pixel gather
		{6, 12, 12, 12, 1, 2, 0}, // 1×1 projection: no scratch
		{24, 3, 3, 24, 3, 1, 1},  // narrow rows: Im2Col pixel gather
		{2, 5, 7, 3, 4, 3, 2},    // wide padding, uneven kernel overhang
	}
	for _, g := range geoms {
		for _, threads := range []int{1, 2, 4} {
			name := fmt.Sprintf("%dx%dx%d-k%ds%dp%d/threads=%d", g.inC, g.h, g.w, g.k, g.stride, g.pad, threads)
			t.Run(name, func(t *testing.T) {
				newConv := func() *Conv2D {
					return NewConv2D("c", g.inC, g.h, g.w, g.outC, g.k, g.stride, g.pad, rand.New(rand.NewSource(5)))
				}
				rng := rand.New(rand.NewSource(6))
				outShape := func(n int) []int {
					c := newConv()
					return []int{n, c.Dims.OutC, c.Dims.OutH, c.Dims.OutW}
				}
				xa := tensor.New(5, g.inC, g.h, g.w).RandN(rng, 0, 1e6)
				ga := tensor.New(outShape(5)...).RandN(rng, 0, 1e6)
				xb := tensor.New(3, g.inC, g.h, g.w).RandN(rng, 0, 1)
				gb := tensor.New(outShape(3)...).RandN(rng, 0, 1)

				used := compute.New(threads)
				defer used.Close()
				c := newConv()
				runConvPass(used, c, xa, ga)
				got := runConvPass(used, c, xb, gb)

				fresh := compute.New(threads)
				defer fresh.Close()
				want := runConvPass(fresh, newConv(), xb, gb)

				for _, f := range []struct {
					what      string
					got, want []float64
				}{
					{"eval", got.eval, want.eval},
					{"train", got.train, want.train},
					{"dx", got.dx, want.dx},
					{"dW", got.dw, want.dw},
					{"db", got.db, want.db},
				} {
					assertBits(t, f.what, f.got, f.want)
				}
			})
		}
	}
}

// bnRef is the per-channel batch-norm training forward and backward the
// paired reductions replace: one channel at a time, each sum one chain over
// samples then pixels.
func bnRef(x, dy []float64, gamma, beta []float64, c, n, hw int, eps float64) (out, dx, dgamma, dbeta []float64) {
	out, dx = make([]float64, len(x)), make([]float64, len(x))
	dgamma, dbeta = make([]float64, c), make([]float64, c)
	cnt := float64(n * hw)
	for ch := 0; ch < c; ch++ {
		at := func(s, i int) int { return (s*c+ch)*hw + i }
		mu := 0.0
		for s := 0; s < n; s++ {
			for i := 0; i < hw; i++ {
				mu += x[at(s, i)]
			}
		}
		mu /= cnt
		va := 0.0
		for s := 0; s < n; s++ {
			for i := 0; i < hw; i++ {
				d := x[at(s, i)] - mu
				va += d * d
			}
		}
		va /= cnt
		std := math.Sqrt(va + eps)
		invStd := 1.0 / std
		xh := make([]float64, len(x))
		sumDy, sumDyXhat := 0.0, 0.0
		for s := 0; s < n; s++ {
			for i := 0; i < hw; i++ {
				h := (x[at(s, i)] - mu) * invStd
				xh[at(s, i)] = h
				out[at(s, i)] = h*gamma[ch] + beta[ch]
				sumDy += dy[at(s, i)]
				sumDyXhat += dy[at(s, i)] * h
			}
		}
		dgamma[ch], dbeta[ch] = sumDyXhat, sumDy
		k := gamma[ch] / std
		for s := 0; s < n; s++ {
			for i := 0; i < hw; i++ {
				dx[at(s, i)] = k * (dy[at(s, i)] - sumDy/cnt - xh[at(s, i)]*(sumDyXhat/cnt))
			}
		}
	}
	return out, dx, dgamma, dbeta
}

// TestBatchNormChannelPairsMatchPerChannel pins the training forward's
// paired reductions (and the backward after them) to the per-channel loop
// bit for bit, odd channel counts included.
func TestBatchNormChannelPairsMatchPerChannel(t *testing.T) {
	for _, c := range []int{1, 3, 6, 7} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("C=%d/threads=%d", c, threads), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(c)))
				n, h, w := 4, 3, 5
				x := tensor.New(n, c, h, w).RandN(rng, 0.5, 2)
				dy := tensor.New(n, c, h, w).RandN(rng, 0, 1)
				bn := NewBatchNorm2D("bn", c)
				bn.Gamma.Value.RandN(rng, 1, 0.3)
				bn.Beta.Value.RandN(rng, 0, 0.3)
				wantOut, wantDx, wantDg, wantDb := bnRef(x.Data(), dy.Data(), bn.Gamma.Value.Data(), bn.Beta.Value.Data(), c, n, h*w, bn.Eps)

				ctx := compute.New(threads)
				defer ctx.Close()
				assertBits(t, "out", bn.Forward(ctx, x, true).Data(), wantOut)
				dx := bn.Backward(ctx, dy.Clone()).Data()
				assertBits(t, "dx", dx, wantDx)
				assertBits(t, "dgamma", bn.Gamma.Grad.Data(), wantDg)
				assertBits(t, "dbeta", bn.Beta.Grad.Data(), wantDb)
			})
		}
	}
}

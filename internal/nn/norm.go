package nn

import (
	"fmt"
	"math"

	"repro/internal/compute"
	"repro/internal/tensor"
)

// BatchNorm2D normalizes each channel over the batch and spatial dimensions,
// then applies a learned affine transform. Running statistics accumulated
// during training are used at inference time.
//
// Work is sharded across the execution context by channel: every channel's
// statistics, normalized outputs, running-stat updates, and gradients touch
// only that channel's locations, so the parallel path is a pure map and
// bit-identical to the serial one. Within a channel, sums run over samples
// in batch order exactly as the serial loop does.
type BatchNorm2D struct {
	name    string
	C       int
	Eps     float64
	Mom     float64 // running-stat momentum (fraction of new batch statistic)
	Gamma   *Param
	Beta    *Param
	RunMean []float64
	RunVar  []float64

	// caches for backward
	xhat    []float64 // normalized input of the last training batch
	out     []float64 // training output; Backward writes dx over it
	lastStd []float64
	lastN   int
	lastHW  int
}

// NewBatchNorm2D creates a batch-norm layer for C channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	g := tensor.New(c)
	g.Fill(1)
	b := tensor.New(c)
	bn := &BatchNorm2D{
		name: name, C: c, Eps: 1e-5, Mom: 0.1,
		Gamma:   newParam(name+".gamma", g, false),
		Beta:    newParam(name+".beta", b, false),
		RunMean: make([]float64, c),
		RunVar:  make([]float64, c),
	}
	for i := range bn.RunVar {
		bn.RunVar[i] = 1
	}
	return bn
}

// Name implements Layer.
func (b *BatchNorm2D) Name() string { return b.name }

// Forward implements Layer. Input is (N, C, H, W) (or (N, C) with H=W=1).
func (b *BatchNorm2D) Forward(ctx *compute.Ctx, x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	hw := x.Len() / (n * b.C)
	xd := x.Data()
	gd := b.Gamma.Value.Data()
	bd := b.Beta.Value.Data()

	if !train {
		od := ctx.Buffer(len(xd))
		ctx.For(b.C, func(c int, _ *compute.Arena) {
			invStd := 1.0 / math.Sqrt(b.RunVar[c]+b.Eps)
			mu := b.RunMean[c]
			g, bb := gd[c], bd[c]
			for s := 0; s < n; s++ {
				base := (s*b.C + c) * hw
				for i := 0; i < hw; i++ {
					od[base+i] = (xd[base+i]-mu)*invStd*g + bb
				}
			}
		})
		return tensor.FromSlice(od, x.Shape()...)
	}

	cnt := float64(n * hw)
	b.xhat = stepBuf(b.xhat, len(xd))
	b.out = stepBuf(b.out, len(xd))
	xh, od := b.xhat, b.out
	if cap(b.lastStd) < b.C {
		b.lastStd = make([]float64, b.C)
	}
	b.lastStd = b.lastStd[:b.C]
	ctx.For(b.C, func(c int, _ *compute.Arena) {
		mu := 0.0
		for s := 0; s < n; s++ {
			base := (s*b.C + c) * hw
			for i := 0; i < hw; i++ {
				mu += xd[base+i]
			}
		}
		mu /= cnt
		va := 0.0
		for s := 0; s < n; s++ {
			base := (s*b.C + c) * hw
			for i := 0; i < hw; i++ {
				d := xd[base+i] - mu
				va += d * d
			}
		}
		va /= cnt
		std := math.Sqrt(va + b.Eps)
		b.lastStd[c] = std
		invStd := 1.0 / std
		g, bb := gd[c], bd[c]
		for s := 0; s < n; s++ {
			base := (s*b.C + c) * hw
			for i := 0; i < hw; i++ {
				h := (xd[base+i] - mu) * invStd
				xh[base+i] = h
				od[base+i] = h*g + bb
			}
		}
		b.RunMean[c] = (1-b.Mom)*b.RunMean[c] + b.Mom*mu
		b.RunVar[c] = (1-b.Mom)*b.RunVar[c] + b.Mom*va
	})
	b.lastN = n
	b.lastHW = hw
	return tensor.FromSlice(od, x.Shape()...)
}

// Backward implements Layer, using the standard batch-norm gradient:
//
//	dx = γ/σ · (dy − mean(dy) − x̂·mean(dy·x̂))
//
// dx is written over the forward output. Each element is read from grad
// before its dx is stored, so grad may itself be that buffer.
func (b *BatchNorm2D) Backward(ctx *compute.Ctx, grad *tensor.Tensor) *tensor.Tensor {
	if b.out == nil {
		panic(fmt.Sprintf("nn: %s: Backward before Forward(train)", b.name))
	}
	n, hw := b.lastN, b.lastHW
	cnt := float64(n * hw)
	gd := grad.Data()
	xh := b.xhat
	dd := b.out[:len(gd)]
	gamma := b.Gamma.Value.Data()
	dgamma := b.Gamma.Grad.Data()
	dbeta := b.Beta.Grad.Data()
	ctx.For(b.C, func(c int, _ *compute.Arena) {
		sumDy, sumDyXhat := 0.0, 0.0
		for s := 0; s < n; s++ {
			base := (s*b.C + c) * hw
			for i := 0; i < hw; i++ {
				dy := gd[base+i]
				sumDy += dy
				sumDyXhat += dy * xh[base+i]
			}
		}
		dgamma[c] += sumDyXhat
		dbeta[c] += sumDy
		meanDy := sumDy / cnt
		meanDyXhat := sumDyXhat / cnt
		k := gamma[c] / b.lastStd[c]
		for s := 0; s < n; s++ {
			base := (s*b.C + c) * hw
			for i := 0; i < hw; i++ {
				dd[base+i] = k * (gd[base+i] - meanDy - xh[base+i]*meanDyXhat)
			}
		}
	})
	return tensor.FromSlice(dd, grad.Shape()...)
}

func (b *BatchNorm2D) releaseBuffers() { b.xhat, b.out = nil, nil }

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

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
//
// The training forward takes two channels per work item and runs their
// mean and variance sums as two independent accumulator chains in one
// pass, so the adds of one chain fill the latency of the other. Each
// channel keeps its own chain in its own order, so pairing changes no bit.
// Backward stays one channel per item: its two sums per channel already
// form two chains.
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
	ctx.For((b.C+1)/2, func(p int, _ *compute.Arena) {
		apply := func(c int, mu, va float64) {
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
		}
		c0, c1 := channelPair(p, b.C)
		s0, s1 := sumPair(xd, b.C, n, hw, c0, c1)
		mu0, mu1 := s0/cnt, s1/cnt
		q0, q1 := sqDevPair(xd, b.C, n, hw, c0, c1, mu0, mu1)
		apply(c0, mu0, q0/cnt)
		if c1 != c0 {
			apply(c1, mu1, q1/cnt)
		}
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

// channelPair returns the two channels of work item p. With an odd channel
// count the last item pairs its channel with itself; the reductions below
// are pure, so the twin's results are simply not used.
func channelPair(p, channels int) (c0, c1 int) {
	c0 = 2 * p
	return c0, min(c0+1, channels-1)
}

// sumPair returns Σx over channels c0 and c1 of an (n, channels, hw)
// batch, each summed over samples then pixels in one chain of its own.
func sumPair(x []float64, channels, n, hw, c0, c1 int) (s0, s1 float64) {
	for s := 0; s < n; s++ {
		x0 := x[(s*channels+c0)*hw : (s*channels+c0+1)*hw]
		x1 := x[(s*channels+c1)*hw : (s*channels+c1+1)*hw]
		x1 = x1[:len(x0)]
		for i, v := range x0 {
			s0 += v
			s1 += x1[i]
		}
	}
	return s0, s1
}

// sqDevPair returns Σ(x−mu)² over channels c0 and c1, in sumPair's order.
func sqDevPair(x []float64, channels, n, hw, c0, c1 int, mu0, mu1 float64) (q0, q1 float64) {
	for s := 0; s < n; s++ {
		x0 := x[(s*channels+c0)*hw : (s*channels+c0+1)*hw]
		x1 := x[(s*channels+c1)*hw : (s*channels+c1+1)*hw]
		x1 = x1[:len(x0)]
		for i, v := range x0 {
			d0 := v - mu0
			q0 += d0 * d0
			d1 := x1[i] - mu1
			q1 += d1 * d1
		}
	}
	return q0, q1
}

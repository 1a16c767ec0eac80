package nn

import (
	"math"

	"repro/internal/compute"
	"repro/internal/tensor"
)

// ReLU applies max(0, x) elementwise. The flat range is chunked across the
// execution context's workers; elementwise maps are bit-identical for any
// chunking.
//
// Both passes are one branch-free sweep: the output is the input's bits
// ANDed with an all-ones or all-zero mask, so NaN, −0 and negatives all
// become +0, exactly as a compare-and-zero loop leaves them.
type ReLU struct {
	name string
	mask []bool    // x > 0 per element of the last training batch
	out  []float64 // training output; Backward writes dx over it
}

// NewReLU creates a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Forward implements Layer.
func (r *ReLU) Forward(ctx *compute.Ctx, x *tensor.Tensor, train bool) *tensor.Tensor {
	xd := x.Data()
	var od []float64
	var mask []bool
	if train {
		r.out = stepBuf(r.out, len(xd))
		r.mask = stepBuf(r.mask, len(xd))
		od, mask = r.out, r.mask
	} else {
		od = ctx.Buffer(len(xd))
	}
	ctx.ForChunks(len(xd), func(lo, hi int) {
		if mask != nil {
			reluMask(od[lo:hi], xd[lo:hi], mask[lo:hi])
		} else {
			relu(od[lo:hi], xd[lo:hi])
		}
	})
	return tensor.FromSlice(od, x.Shape()...)
}

// Backward implements Layer: dx = mask ? g : +0, written over the forward
// output.
func (r *ReLU) Backward(ctx *compute.Ctx, grad *tensor.Tensor) *tensor.Tensor {
	gd := grad.Data()
	dd := r.out[:len(gd)]
	mask := r.mask[:len(gd)]
	ctx.ForChunks(len(gd), func(lo, hi int) {
		keepMasked(dd[lo:hi], gd[lo:hi], mask[lo:hi])
	})
	return tensor.FromSlice(dd, grad.Shape()...)
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

func (r *ReLU) releaseBuffers() { r.out, r.mask = nil, nil }

// LeakyReLU applies x for x>0 and alpha*x otherwise.
type LeakyReLU struct {
	name  string
	Alpha float64
	mask  []bool
	out   []float64
}

// NewLeakyReLU creates a leaky ReLU with the given negative slope.
func NewLeakyReLU(name string, alpha float64) *LeakyReLU {
	return &LeakyReLU{name: name, Alpha: alpha}
}

// Name implements Layer.
func (r *LeakyReLU) Name() string { return r.name }

// Forward implements Layer.
func (r *LeakyReLU) Forward(ctx *compute.Ctx, x *tensor.Tensor, train bool) *tensor.Tensor {
	xd := x.Data()
	var od []float64
	var mask []bool
	if train {
		r.out = stepBuf(r.out, len(xd))
		r.mask = stepBuf(r.mask, len(xd))
		od, mask = r.out, r.mask
	} else {
		od = ctx.Buffer(len(xd))
	}
	alpha := r.Alpha
	ctx.ForChunks(len(xd), func(lo, hi int) {
		src, dst := xd[lo:hi], od[lo:hi]
		for i, v := range src {
			pos := v > 0
			if mask != nil {
				mask[lo+i] = pos
			}
			dst[i] = selectBits(pos, v, v*alpha)
		}
	})
	return tensor.FromSlice(od, x.Shape()...)
}

// Backward implements Layer.
func (r *LeakyReLU) Backward(ctx *compute.Ctx, grad *tensor.Tensor) *tensor.Tensor {
	gd := grad.Data()
	dd := r.out[:len(gd)]
	mask := r.mask[:len(gd)]
	alpha := r.Alpha
	ctx.ForChunks(len(gd), func(lo, hi int) {
		src, dst, m := gd[lo:hi], dd[lo:hi], mask[lo:hi]
		for i, g := range src {
			dst[i] = selectBits(m[i], g, g*alpha)
		}
	})
	return tensor.FromSlice(dd, grad.Shape()...)
}

// Params implements Layer.
func (r *LeakyReLU) Params() []*Param { return nil }

func (r *LeakyReLU) releaseBuffers() { r.out, r.mask = nil, nil }

// ones returns all ones for true and zero for false. The compiler lowers
// the conditional to a flag set, so callers stay branch-free.
func ones(b bool) uint64 {
	var m uint64
	if b {
		m = 1
	}
	return -m
}

// selectBits returns a if pick, else b, by masking their bit patterns.
func selectBits(pick bool, a, b float64) float64 {
	m := ones(pick)
	return math.Float64frombits(math.Float64bits(a)&m | math.Float64bits(b)&^m)
}

// relu writes max(0, v) of src into dst, mapping NaN and −0 to +0.
func relu(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Float64frombits(math.Float64bits(v) & ones(v > 0))
	}
}

// reluMask is relu that also records v > 0 per element.
func reluMask(dst, src []float64, mask []bool) {
	dst, mask = dst[:len(src)], mask[:len(src)]
	for i, v := range src {
		pos := v > 0
		mask[i] = pos
		dst[i] = math.Float64frombits(math.Float64bits(v) & ones(pos))
	}
}

// keepMasked writes g where mask is set and +0 elsewhere.
func keepMasked(dst, g []float64, mask []bool) {
	dst, mask = dst[:len(g)], mask[:len(g)]
	for i, v := range g {
		dst[i] = math.Float64frombits(math.Float64bits(v) & ones(mask[i]))
	}
}

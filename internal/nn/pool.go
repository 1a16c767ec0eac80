package nn

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/tensor"
)

// MaxPool2D performs k×k max pooling with stride k over NCHW batches. The
// batch is sharded across the execution context's workers; every sample's
// outputs, argmax cache, and backward scatter touch only that sample's
// locations (pooling windows are disjoint), so the parallel path is a pure
// map.
type MaxPool2D struct {
	name       string
	K          int
	C, H, W    int
	outH, outW int
	argmax     []int
	lastShape  []int
}

// NewMaxPool2D creates a max-pooling layer for inputs of (C, H, W).
func NewMaxPool2D(name string, c, h, w, k int) *MaxPool2D {
	if h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("nn: %s: pool size %d does not divide %dx%d", name, k, h, w))
	}
	return &MaxPool2D{name: name, K: k, C: c, H: h, W: w, outH: h / k, outW: w / k}
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return p.name }

// OutShape returns the per-sample output dimensions (C, H, W).
func (p *MaxPool2D) OutShape() (int, int, int) { return p.C, p.outH, p.outW }

// Forward implements Layer.
func (p *MaxPool2D) Forward(ctx *compute.Ctx, x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	in := x.Reshape(n, p.C, p.H, p.W)
	out := tensor.New(n, p.C, p.outH, p.outW)
	if train {
		if cap(p.argmax) < out.Len() {
			p.argmax = make([]int, out.Len())
		}
		p.argmax = p.argmax[:out.Len()]
		p.lastShape = in.Shape()
	}
	id := in.Data()
	od := out.Data()
	outSample := p.C * p.outH * p.outW
	ctx.For(n, func(b int, _ *compute.Arena) {
		oi := b * outSample
		for c := 0; c < p.C; c++ {
			base := (b*p.C + c) * p.H * p.W
			for oy := 0; oy < p.outH; oy++ {
				for ox := 0; ox < p.outW; ox++ {
					best := -1
					bestV := 0.0
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.K + ky
						for kx := 0; kx < p.K; kx++ {
							ix := ox*p.K + kx
							idx := base + iy*p.W + ix
							if best < 0 || id[idx] > bestV {
								best, bestV = idx, id[idx]
							}
						}
					}
					od[oi] = bestV
					if train {
						p.argmax[oi] = best
					}
					oi++
				}
			}
		}
	})
	return out
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(ctx *compute.Ctx, grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(p.lastShape...)
	dd := dx.Data()
	gd := grad.Data()
	n := p.lastShape[0]
	outSample := p.C * p.outH * p.outW
	ctx.For(n, func(b int, _ *compute.Arena) {
		for i := b * outSample; i < (b+1)*outSample; i++ {
			dd[p.argmax[i]] += gd[i]
		}
	})
	return dx
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool averages each channel's spatial map, mapping
// (N, C, H, W) to (N, C). The batch is sharded across workers.
type GlobalAvgPool struct {
	name    string
	C, H, W int
	out     []float64 // training output, sized for the input gradient too
}

// NewGlobalAvgPool creates a global average pooling layer.
func NewGlobalAvgPool(name string, c, h, w int) *GlobalAvgPool {
	return &GlobalAvgPool{name: name, C: c, H: h, W: w}
}

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return p.name }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(ctx *compute.Ctx, x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	spatial := p.H * p.W
	var od []float64
	if train {
		p.out = stepBuf(p.out, n*p.C*spatial)
		od = p.out[:n*p.C]
	} else {
		od = ctx.Buffer(n * p.C)
	}
	xd := x.Data()
	inv := 1.0 / float64(spatial)
	ctx.For(n, func(b int, _ *compute.Arena) {
		for c := 0; c < p.C; c++ {
			base := (b*p.C + c) * spatial
			s := 0.0
			for i := 0; i < spatial; i++ {
				s += xd[base+i]
			}
			od[b*p.C+c] = s * inv
		}
	})
	return tensor.FromSlice(od, n, p.C)
}

// Backward implements Layer. dx is written over the forward output.
func (p *GlobalAvgPool) Backward(ctx *compute.Ctx, grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Dim(0)
	spatial := p.H * p.W
	dd := dxBuf(p.out, grad, n*p.C*spatial)
	gd := grad.Data()
	inv := 1.0 / float64(spatial)
	ctx.For(n, func(b int, _ *compute.Arena) {
		for c := 0; c < p.C; c++ {
			g := gd[b*p.C+c] * inv
			base := (b*p.C + c) * spatial
			for i := 0; i < spatial; i++ {
				dd[base+i] = g
			}
		}
	})
	return tensor.FromSlice(dd, n, p.C, p.H, p.W)
}

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }

func (p *GlobalAvgPool) releaseBuffers() { p.out = nil }

// Flatten reshapes (N, ...) to (N, features). It is a no-op on storage and
// exists to make architectures explicit.
type Flatten struct {
	name      string
	lastShape []int
}

// NewFlatten creates a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Forward implements Layer.
func (f *Flatten) Forward(_ *compute.Ctx, x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		f.lastShape = x.Shape()
	}
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(_ *compute.Ctx, grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.lastShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

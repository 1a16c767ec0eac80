package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/compute"
	"repro/internal/tensor"
)

// Residual is a pre-packaged basic residual block:
//
//	y = ReLU( BN2(Conv2(ReLU(BN1(Conv1(x))))) + shortcut(x) )
//
// where shortcut is the identity when the input and output geometries match,
// and a 1×1 strided convolution + batch-norm otherwise (the "option B"
// projection from He et al.).
type Residual struct {
	name string
	body *Sequential
	proj *Sequential // nil means identity shortcut
	relu *ReLU
	sum  []float64 // training residual sum; Backward writes dx over it
	OutC int
	OutH int
	OutW int
}

// NewResidual builds a basic block mapping (inC, h, w) to (outC, h/stride,
// w/stride). The two body convolutions get conv indices idx and idx+1; the
// projection (when present) shares index idx+1 (it acts at the same depth).
func NewResidual(name string, inC, h, w, outC, stride int, idx int, rng *rand.Rand) *Residual {
	conv1 := NewConv2D(name+".conv1", inC, h, w, outC, 3, stride, 1, rng)
	conv1.W.ConvIndex = idx
	conv1.B.ConvIndex = idx
	oh, ow := conv1.Dims.OutH, conv1.Dims.OutW
	conv2 := NewConv2D(name+".conv2", outC, oh, ow, outC, 3, 1, 1, rng)
	conv2.W.ConvIndex = idx + 1
	conv2.B.ConvIndex = idx + 1
	body := NewSequential(name+".body",
		conv1,
		NewBatchNorm2D(name+".bn1", outC),
		NewReLU(name+".relu1"),
		conv2,
		NewBatchNorm2D(name+".bn2", outC),
	)
	r := &Residual{
		name: name, body: body,
		relu: NewReLU(name + ".relu2"),
		OutC: outC, OutH: oh, OutW: ow,
	}
	if stride != 1 || inC != outC {
		pconv := NewConv2D(name+".proj", inC, h, w, outC, 1, stride, 0, rng)
		pconv.W.ConvIndex = idx + 1
		pconv.B.ConvIndex = idx + 1
		r.proj = NewSequential(name+".shortcut",
			pconv,
			NewBatchNorm2D(name+".projbn", outC),
		)
	}
	return r
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// addInto writes a+b elementwise into dst, chunked across the context's
// workers (a pure map: element i depends only on a[i] and b[i]).
func addInto(ctx *compute.Ctx, dst, a, b []float64) {
	ctx.ForChunks(len(dst), func(lo, hi int) {
		d, x, y := dst[lo:hi], a[lo:hi], b[lo:hi]
		for i := range d {
			d[i] = x[i] + y[i]
		}
	})
}

// Forward implements Layer. In eval mode the body output, the projection
// output and the sum go back to the context's step buffers once used.
func (r *Residual) Forward(ctx *compute.Ctx, x *tensor.Tensor, train bool) *tensor.Tensor {
	y := r.body.Forward(ctx, x, train)
	sc := x
	if r.proj != nil {
		sc = r.proj.Forward(ctx, x, train)
	}
	var sd []float64
	if train {
		r.sum = stepBuf(r.sum, max(y.Len(), x.Len()))
		sd = r.sum[:y.Len()]
	} else {
		sd = ctx.Buffer(y.Len())
	}
	addInto(ctx, sd, y.Data(), sc.Data())
	sum := tensor.FromSlice(sd, y.Shape()...)
	out := r.relu.Forward(ctx, sum, train)
	if !train {
		recycle(ctx, y, x)
		if r.proj != nil {
			recycle(ctx, sc, x)
		}
		ctx.Recycle(sd)
	}
	return out
}

// Backward implements Layer. The input gradient is written over the
// residual sum, dead once relu2's backward has run.
func (r *Residual) Backward(ctx *compute.Ctx, grad *tensor.Tensor) *tensor.Tensor {
	if r.sum == nil {
		panic(fmt.Sprintf("nn: %s: Backward before Forward(train)", r.name))
	}
	g := r.relu.Backward(ctx, grad)
	dxBody := r.body.Backward(ctx, g)
	dxShort := g
	if r.proj != nil {
		dxShort = r.proj.Backward(ctx, g)
	}
	dd := r.sum[:dxBody.Len()]
	addInto(ctx, dd, dxBody.Data(), dxShort.Data())
	return tensor.FromSlice(dd, dxBody.Shape()...)
}

func (r *Residual) releaseBuffers() {
	r.sum = nil
	r.relu.releaseBuffers()
}

// Children returns the block's composite sub-layers (body and, when a
// projection shortcut exists, the shortcut), for callers that need to walk
// the layer tree (e.g. serialization of batch-norm statistics).
func (r *Residual) Children() []Layer {
	out := []Layer{r.body}
	if r.proj != nil {
		out = append(out, r.proj)
	}
	return out
}

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := r.body.Params()
	if r.proj != nil {
		ps = append(ps, r.proj.Params()...)
	}
	return ps
}

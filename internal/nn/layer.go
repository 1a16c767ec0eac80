package nn

import (
	"repro/internal/compute"
	"repro/internal/tensor"
)

// Layer is a differentiable module with manual backpropagation.
//
// Forward consumes an input batch and returns the output batch; when train
// is true the layer caches whatever it needs for Backward and updates any
// running statistics. Backward consumes the loss gradient with respect to
// the layer's output and returns the gradient with respect to its input,
// accumulating parameter gradients along the way. Backward must be called
// with the same batch that was last passed to Forward with train=true.
//
// A tensor returned by Forward or Backward is valid at least until the
// layer's next call: training buffers are reused from one step to the next,
// Backward writes the input gradient over the layer's forward output, and
// an eval output belongs to the caller, who may recycle it into the
// context's step buffers (see buffers.go).
//
// Both passes receive the execution context that owns the worker pool and
// scratch arenas; layers shard their per-sample batch loops across it
// instead of allocating scratch privately. Implementations must follow the
// compute package's determinism contract: per-sample work writes only to
// sample-owned locations, and cross-sample gradient sums go through
// per-sample partial buffers reduced in fixed sample order, so outputs and
// gradients are bit-identical for every thread count.
type Layer interface {
	// Name returns the layer's unique name within its model.
	Name() string
	// Forward computes the layer output for a batch.
	Forward(ctx *compute.Ctx, x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the output gradient and returns the input
	// gradient.
	Backward(ctx *compute.Ctx, grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers, feeding each one's output to the next.
type Sequential struct {
	name   string
	Layers []Layer
}

// NewSequential builds a named sequential container.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, Layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Add appends a layer.
func (s *Sequential) Add(l Layer) { s.Layers = append(s.Layers, l) }

// Forward implements Layer. In eval mode each intermediate goes back to
// the context's step buffers once the next layer has consumed it; the
// container's own input, and an output that aliases its input (Flatten's
// reshaped view), are never recycled.
func (s *Sequential) Forward(ctx *compute.Ctx, x *tensor.Tensor, train bool) *tensor.Tensor {
	in := x
	for _, l := range s.Layers {
		y := l.Forward(ctx, x, train)
		if !train {
			recycle(ctx, x, in, y)
		}
		x = y
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(ctx *compute.Ctx, grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(ctx, grad)
	}
	return grad
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Walk visits l and every layer nested below it in forward order,
// descending into Sequential and Residual containers. Serialization code
// (model export, training checkpoints) uses it to reach per-layer state
// that is not a Param, like batch-norm running statistics.
func Walk(l Layer, visit func(Layer)) {
	visit(l)
	switch v := l.(type) {
	case *Sequential:
		for _, child := range v.Layers {
			Walk(child, visit)
		}
	case *Residual:
		for _, child := range v.Children() {
			Walk(child, visit)
		}
	}
}

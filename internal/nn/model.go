package nn

import (
	"fmt"
	"sort"

	"repro/internal/compute"
	"repro/internal/tensor"
)

// Model wraps a network with the bookkeeping the attacks need: stable
// parameter ordering, weight-only views, and the paper's notion of
// layer groups over conv-layer indices. Every forward/backward pass runs
// under the model's execution context (serial unless SetCtx/SetThreads was
// called), so parallelism is a property of the model, inherited by
// training, fine-tuning, and evaluation alike.
type Model struct {
	// Net is the underlying network.
	Net Layer
	// Classes is the number of output classes.
	Classes int
	// InputShape is the per-sample input shape (e.g. [1 16 16]).
	InputShape []int

	params []*Param
	ctx    *compute.Ctx
}

// NewModel wraps net, capturing its parameter list in forward order.
func NewModel(net Layer, classes int, inputShape []int) *Model {
	return &Model{
		Net:        net,
		Classes:    classes,
		InputShape: inputShape,
		params:     net.Params(),
	}
}

// Params returns all trainable parameters in forward order.
func (m *Model) Params() []*Param { return m.params }

// Ctx returns the model's execution context, defaulting to the shared
// serial context when none was set.
func (m *Model) Ctx() *compute.Ctx {
	if m.ctx == nil {
		return compute.Serial()
	}
	return m.ctx
}

// SetCtx installs the execution context used by Forward/Backward.
func (m *Model) SetCtx(ctx *compute.Ctx) { m.ctx = ctx }

// SetThreads installs a shared execution context with the given worker
// count (0 selects runtime.GOMAXPROCS). Results are bit-identical for every
// worker count; see the compute package for the determinism contract.
func (m *Model) SetThreads(threads int) { m.ctx = compute.Get(threads) }

// WeightParams returns only the multiplicative weights (conv kernels and
// dense matrices), the carriers used for data encoding.
func (m *Model) WeightParams() []*Param {
	var ws []*Param
	for _, p := range m.params {
		if p.Weight {
			ws = append(ws, p)
		}
	}
	return ws
}

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += p.NumEl()
	}
	return n
}

// NumWeightParams returns the total scalar count over weight parameters.
func (m *Model) NumWeightParams() int {
	n := 0
	for _, p := range m.WeightParams() {
		n += p.NumEl()
	}
	return n
}

// MaxConvIndex returns the largest ConvIndex over all parameters, i.e. the
// network "depth" in the paper's layer-numbering sense.
func (m *Model) MaxConvIndex() int {
	mx := 0
	for _, p := range m.params {
		if p.ConvIndex > mx {
			mx = p.ConvIndex
		}
	}
	return mx
}

// ZeroGrad clears every parameter gradient.
func (m *Model) ZeroGrad() {
	for _, p := range m.params {
		p.ZeroGrad()
	}
}

// Forward runs the network in inference mode.
func (m *Model) Forward(x *tensor.Tensor) *tensor.Tensor {
	return m.Net.Forward(m.Ctx(), x, false)
}

// ForwardTrain runs the network in training mode (caches for backward).
func (m *Model) ForwardTrain(x *tensor.Tensor) *tensor.Tensor {
	return m.Net.Forward(m.Ctx(), x, true)
}

// Backward propagates the loss gradient, accumulating parameter grads.
func (m *Model) Backward(grad *tensor.Tensor) {
	m.Net.Backward(m.Ctx(), grad)
}

// InputLen returns the flattened per-sample input length.
func (m *Model) InputLen() int {
	n := 1
	for _, d := range m.InputShape {
		n *= d
	}
	return n
}

// EvalBatch runs one inference forward pass over a batch of flattened
// per-sample inputs and returns one logits row per sample. Every layer's
// inference path is per-sample independent (batch norm reads running
// statistics, conv/dense/pool map each sample on its own), so each row is
// bit-identical to what a single-sample Forward of the same input produces —
// the property the serving batcher relies on to coalesce concurrent
// requests without changing anyone's answer. Pinned by
// TestEvalBatchBitIdenticalToSingle.
//
// The rows are the caller's; the input batch and the logits tensor are step
// buffers of the model's context and go back to it before returning.
func (m *Model) EvalBatch(inputs [][]float64) ([][]float64, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	u := m.InputLen()
	for i, in := range inputs {
		if len(in) != u {
			return nil, fmt.Errorf("nn: EvalBatch input %d has %d values, model takes %d", i, len(in), u)
		}
	}
	ctx := m.Ctx()
	xd := ctx.Buffer(len(inputs) * u)
	for i, in := range inputs {
		copy(xd[i*u:(i+1)*u], in)
	}
	x := tensor.FromSlice(xd, append([]int{len(inputs)}, m.InputShape...)...)
	logits := m.Forward(x)
	k := logits.Dim(1)
	flat := append([]float64(nil), logits.Data()...)
	out := make([][]float64, len(inputs))
	for i := range out {
		out[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	recycle(ctx, logits, x)
	ctx.Recycle(xd)
	return out, nil
}

// Predict returns the argmax class for each sample in x, evaluating in
// chunks of batchSize to bound memory.
func (m *Model) Predict(x *tensor.Tensor, batchSize int) []int {
	n := x.Dim(0)
	if batchSize <= 0 {
		batchSize = 64
	}
	out := make([]int, n)
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		xv := x.View(lo, hi)
		logits := m.Forward(xv)
		k := logits.Dim(1)
		ld := logits.Data()
		for i := 0; i < hi-lo; i++ {
			out[lo+i] = tensor.ArgMax(ld[i*k : (i+1)*k])
		}
		recycle(m.Ctx(), logits, xv)
	}
	return out
}

// Accuracy returns the fraction of samples whose argmax prediction matches
// the label.
func (m *Model) Accuracy(x *tensor.Tensor, labels []int, batchSize int) float64 {
	preds := m.Predict(x, batchSize)
	if len(preds) == 0 {
		return 0
	}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(preds))
}

// LayerGroup is a named set of parameters treated as one encoding unit by
// the layer-wise regularizer (Eq 2 of the paper).
type LayerGroup struct {
	// Name labels the group ("group1").
	Name string
	// Params are the group's weight parameters in forward order.
	Params []*Param
	// NumEl is the total scalar count across Params.
	NumEl int
}

// GroupsByConvIndex partitions the model's *weight* parameters into
// len(bounds)+1 groups by conv-layer index: group k contains layers with
// index in (bounds[k-1], bounds[k]] (with implicit 0 and +inf at the ends).
// For the paper's ResNet-34 split this is bounds = [12, 16]: layers 1-12,
// 13-16, and 17+. Parameters with ConvIndex 0 (none here) go to the last
// group.
func (m *Model) GroupsByConvIndex(bounds []int) []LayerGroup {
	if !sort.IntsAreSorted(bounds) {
		panic(fmt.Sprintf("nn: group bounds %v not sorted", bounds))
	}
	groups := make([]LayerGroup, len(bounds)+1)
	for i := range groups {
		groups[i].Name = fmt.Sprintf("group%d", i+1)
	}
	for _, p := range m.WeightParams() {
		gi := len(bounds)
		if p.ConvIndex > 0 {
			for i, b := range bounds {
				if p.ConvIndex <= b {
					gi = i
					break
				}
			}
		}
		groups[gi].Params = append(groups[gi].Params, p)
		groups[gi].NumEl += p.NumEl()
	}
	return groups
}

// FlattenValues concatenates the group's parameter values into one vector.
func (g LayerGroup) FlattenValues() []float64 {
	return g.AppendValues(make([]float64, 0, g.NumEl))
}

// AppendValues appends the group's parameter values to dst, in the order
// FlattenValues uses, and returns the extended slice.
func (g LayerGroup) AppendValues(dst []float64) []float64 {
	for _, p := range g.Params {
		dst = append(dst, p.Value.Data()...)
	}
	return dst
}

// ScatterValues writes a flat vector (as produced by FlattenValues) back
// into the group's parameters.
func (g LayerGroup) ScatterValues(v []float64) {
	if len(v) != g.NumEl {
		panic(fmt.Sprintf("nn: ScatterValues length %d, want %d", len(v), g.NumEl))
	}
	off := 0
	for _, p := range g.Params {
		n := p.NumEl()
		copy(p.Value.Data(), v[off:off+n])
		off += n
	}
}

// AddToGrads adds a flat vector of per-element contributions to the group's
// parameter gradients. Used by the correlation regularizer, whose gradient
// is computed in closed form over the flattened group.
func (g LayerGroup) AddToGrads(v []float64) {
	if len(v) != g.NumEl {
		panic(fmt.Sprintf("nn: AddToGrads length %d, want %d", len(v), g.NumEl))
	}
	off := 0
	for _, p := range g.Params {
		n := p.NumEl()
		gd := p.Grad.Data()
		for i := 0; i < n; i++ {
			gd[i] += v[off+i]
		}
		off += n
	}
}

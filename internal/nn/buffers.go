package nn

import (
	"repro/internal/compute"
	"repro/internal/tensor"
)

// Buffer ownership (DESIGN §7).
//
// Train mode: a layer keeps the buffers of its last training forward — its
// output and whatever its Backward reads (im2col matrices, x̂, masks) — and
// reuses them on the next training forward. Backward writes the input
// gradient over the layer's own forward output, which nothing reads by
// then, so the output buffer is sized for the larger of the two. Training
// loops call Model.ReleaseBuffers when they return.
//
// Eval mode: a layer takes its output from the context's step buffers
// (compute.Ctx.Buffer) and hands it to the caller. Sequential and Residual
// recycle an intermediate once the next layer has consumed it; a model's
// final output stays with the caller.
//
// Either way a tensor returned by a layer's Forward or Backward is valid at
// least until that layer's next call. Only where results are written
// changes, never the order of any sum, so every value is bit-identical to
// freshly allocated buffers.

// stepBuf returns buf resized to n, allocating when its capacity is short.
// Contents are unspecified; callers overwrite every element.
func stepBuf[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// dxBuf returns the n-element buffer a layer writes its input gradient
// into: its dead forward output, unless that is too small (Backward without
// a training forward) or the caller passed it back as grad.
func dxBuf(out []float64, grad *tensor.Tensor, n int) []float64 {
	if cap(out) < n || sameArray(out, grad.Data()) {
		return make([]float64, n)
	}
	return out[:n]
}

// sameArray reports whether two non-empty slices share a backing array.
// Slices of one array share its last element, so comparing the address of
// each slice's last element in capacity decides it.
func sameArray(a, b []float64) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// recycle returns t's storage to ctx unless t shares it with one of keep
// (an input that is not the caller's to give away, or a view of it).
func recycle(ctx *compute.Ctx, t *tensor.Tensor, keep ...*tensor.Tensor) {
	for _, k := range keep {
		if sameArray(t.Data(), k.Data()) {
			return
		}
	}
	ctx.Recycle(t.Data())
}

// bufferHolder is implemented by layers that keep step buffers between
// training passes.
type bufferHolder interface {
	releaseBuffers()
}

// ReleaseBuffers drops the step buffers every layer keeps between training
// passes. train.Run, quantize.FineTune and extract.Distill call it when they
// return, so a trained model that stays alive — a victim kept for
// evaluation, a model awaiting fine-tuning — does not hold a step's worth
// of activations. The next training forward allocates them again.
func (m *Model) ReleaseBuffers() {
	Walk(m.Net, func(l Layer) {
		if h, ok := l.(bufferHolder); ok {
			h.releaseBuffers()
		}
	})
}

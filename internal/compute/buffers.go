package compute

import "sync"

// Step buffers. Buffer and Recycle give the layers of a model a free list of
// float64 buffers scoped to the context, for activations and gradients that
// live for part of one pass: an eval forward's intermediates (recycled as
// soon as the next layer has consumed them) and a backward pass's
// per-sample gradient partials. Because the list belongs to the Ctx and not
// to a model, the memory a step needs does not grow with the number of
// models that share a context.
//
// A buffer comes back with unspecified contents — whatever its previous
// holder left — so callers fully overwrite it, as with arena scratch.
// Recycle hands a buffer back; the caller must not touch it afterwards.

// maxFreeBuffers bounds the free list. It is far above what one pass keeps
// in flight; past it, recycled buffers are dropped to the garbage
// collector, so foreign buffers (layers that still allocate) cannot make
// the list grow without bound.
const maxFreeBuffers = 64

// bufPool is a best-fit free list. The mutex makes Buffer and Recycle safe
// to call from any goroutine, though under the single-driver rule only the
// driving goroutine does.
type bufPool struct {
	mu   sync.Mutex
	free [][]float64
}

// Buffer returns a length-n slice with unspecified contents: the smallest
// free buffer whose capacity is at least n and at most 2n, or a new one.
// The upper bound keeps a small request from pinning a large buffer that a
// later large request would then have to allocate again.
func (c *Ctx) Buffer(n int) []float64 {
	p := &c.pool
	p.mu.Lock()
	best := -1
	for i, b := range p.free {
		if k := cap(b); k >= n && k <= 2*n && (best < 0 || k < cap(p.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := p.free[best]
		last := len(p.free) - 1
		p.free[best] = p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]float64, n)
}

// Recycle returns a buffer obtained from Buffer (or any buffer the caller
// owns outright) to the free list. Its full capacity becomes reusable.
func (c *Ctx) Recycle(b []float64) {
	if cap(b) == 0 {
		return
	}
	p := &c.pool
	p.mu.Lock()
	if len(p.free) < maxFreeBuffers {
		p.free = append(p.free, b[:cap(b)])
	}
	p.mu.Unlock()
}

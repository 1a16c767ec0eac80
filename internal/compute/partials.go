package compute

import "fmt"

// PartialSet manages the per-shard partial buffers of a data-parallel
// reduction. Each partial is a flat float64 vector of the same length
// (typically a flattened gradient); Fold adds the partials into a
// destination in ascending shard-index order, which makes the reduction a
// pure function of the partials' contents and their index — the property
// the sharded trainer's bit-identity contract rests on: every thread count
// computes the same shard partials and folds them in the same order, so
// the folded result is byte-identical everywhere.
type PartialSet struct {
	size  int
	parts [][]float64
}

// NewPartialSet allocates n zeroed partial buffers of the given size.
func NewPartialSet(n, size int) *PartialSet {
	if n <= 0 || size < 0 {
		panic(fmt.Sprintf("compute: NewPartialSet(%d, %d)", n, size))
	}
	s := &PartialSet{size: size, parts: make([][]float64, n)}
	for i := range s.parts {
		s.parts[i] = make([]float64, size)
	}
	return s
}

// N returns the number of partials.
func (s *PartialSet) N() int { return len(s.parts) }

// Partial returns the i-th partial buffer. Callers write into it directly
// (snapshotting a shard's gradient).
func (s *PartialSet) Partial(i int) []float64 { return s.parts[i] }

// Zero clears every partial buffer.
func (s *PartialSet) Zero() {
	for _, p := range s.parts {
		for i := range p {
			p[i] = 0
		}
	}
}

// Fold accumulates every partial into dst in ascending index order:
// dst[j] += parts[0][j]; dst[j] += parts[1][j]; ... — a fixed left fold,
// never a tree or racing accumulation, so the float rounding is identical
// on every run regardless of which goroutine produced each partial.
func (s *PartialSet) Fold(dst []float64) {
	if len(dst) != s.size {
		panic(fmt.Sprintf("compute: Fold destination has %d elements, partials have %d", len(dst), s.size))
	}
	for _, p := range s.parts {
		for j, v := range p {
			dst[j] += v
		}
	}
}

package quantize

import (
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// FineTuneConfig controls post-quantization fine-tuning.
type FineTuneConfig struct {
	// Epochs is the number of fine-tuning passes (the paper's "light
	// fine-tuning to boost accuracy").
	Epochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// LR is the centroid / free-parameter learning rate.
	LR float64
	// Seed drives shuffling.
	Seed int64
	// Reg, when non-nil, keeps a regularizer active during fine-tuning
	// (the attack flow keeps its correlation penalty on so centroids do
	// not drift away from the encoding).
	Reg train.Regularizer
}

// FineTune performs deep-compression style shared-weight training: cluster
// assignments stay frozen, the gradient of every weight in a cluster is
// averaged into its centroid, and centroids plus all non-quantized
// parameters (biases, batch-norm affine) are updated with SGD. Weights are
// re-materialized from centroids after every step, so the model remains
// exactly `levels`-valued throughout.
func FineTune(m *nn.Model, a *Applied, x *tensor.Tensor, y []int, cfg FineTuneConfig) {
	if cfg.Epochs <= 0 {
		return
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	defer m.ReleaseBuffers()
	n := x.Dim(0)
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	quantized := make(map[*nn.Param]bool)
	for _, u := range a.Units {
		for _, p := range u.Params {
			quantized[p] = true
		}
	}
	var free []*nn.Param
	for _, p := range m.Params() {
		if !quantized[p] {
			free = append(free, p)
		}
	}
	sample := x.Len() / n
	bx := tensor.New(cfg.BatchSize, sample)
	by := make([]int, cfg.BatchSize)
	xd := x.Data()

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for lo := 0; lo+cfg.BatchSize <= n; lo += cfg.BatchSize {
			bd := bx.Data()
			for i, src := range perm[lo : lo+cfg.BatchSize] {
				copy(bd[i*sample:(i+1)*sample], xd[src*sample:(src+1)*sample])
				by[i] = y[src]
			}
			batch := bx.Reshape(append([]int{cfg.BatchSize}, m.InputShape...)...)
			m.ZeroGrad()
			logits := m.ForwardTrain(batch)
			_, grad := nn.SoftmaxCrossEntropy(logits, by)
			m.Backward(grad)
			if cfg.Reg != nil {
				cfg.Reg.Apply(m)
			}
			// Centroid update: mean gradient of each cluster's members.
			for _, u := range a.Units {
				k := u.Book.NumLevels()
				sums := make([]float64, k)
				counts := make([]int, k)
				for pi, p := range u.Params {
					gd := p.Grad.Data()
					for i, c := range u.Assign[pi] {
						sums[c] += gd[i]
						counts[c]++
					}
				}
				for c := 0; c < k; c++ {
					if counts[c] > 0 {
						u.Book.Levels[c] -= cfg.LR * sums[c] / float64(counts[c])
					}
				}
			}
			a.Rewrite()
			// Free parameters get plain SGD.
			for _, p := range free {
				p.Value.AddScaled(-cfg.LR, p.Grad)
			}
		}
	}
}

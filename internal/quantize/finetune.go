package quantize

import (
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
// exactly `levels`-valued throughout. The loop itself is train.Run, under
// the model's current execution context, with the shared-weight update as
// its optimizer.
func FineTune(m *nn.Model, a *Applied, x *tensor.Tensor, y []int, cfg FineTuneConfig) {
	if cfg.Epochs <= 0 {
		return
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	train.Run(m, x, y, train.Config{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize,
		Optimizer: newSharedWeightSGD(a, cfg.LR),
		Reg:       cfg.Reg, Seed: cfg.Seed,
		Ctx: m.Ctx(),
	})
}

// sharedWeightSGD is fine-tuning's optimizer. Each step averages every
// cluster's member gradients into its centroid, rewrites the covered
// weights from the updated codebooks, and applies plain SGD to the
// parameters no codebook covers.
type sharedWeightSGD struct {
	lr        float64
	a         *Applied
	quantized map[*nn.Param]bool
	// sums and counts are per-centroid scratch, sized for the largest
	// codebook and reused by every unit on every step.
	sums   []float64
	counts []int
}

func newSharedWeightSGD(a *Applied, lr float64) *sharedWeightSGD {
	o := &sharedWeightSGD{lr: lr, a: a, quantized: make(map[*nn.Param]bool)}
	levels := 0
	for _, u := range a.Units {
		for _, p := range u.Params {
			o.quantized[p] = true
		}
		levels = max(levels, u.Book.NumLevels())
	}
	o.sums = make([]float64, levels)
	o.counts = make([]int, levels)
	return o
}

func (o *sharedWeightSGD) SetLR(lr float64) { o.lr = lr }
func (o *sharedWeightSGD) LR() float64      { return o.lr }

func (o *sharedWeightSGD) Step(params []*nn.Param) {
	for _, u := range o.a.Units {
		k := u.Book.NumLevels()
		sums, counts := o.sums[:k], o.counts[:k]
		clear(sums)
		clear(counts)
		for pi, p := range u.Params {
			gd := p.Grad.Data()
			for i, c := range u.Assign[pi] {
				sums[c] += gd[i]
				counts[c]++
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] > 0 {
				u.Book.Levels[c] -= o.lr * sums[c] / float64(counts[c])
			}
		}
	}
	o.a.Rewrite()
	for _, p := range params {
		if !o.quantized[p] {
			p.Value.AddScaled(-o.lr, p.Grad)
		}
	}
}

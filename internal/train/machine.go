package train

import (
	"time"

	"repro/internal/compute"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// stepMachine is the per-step stage machine the trainer runs each batch
// through:
//
//	shard → forward/backward partials → global reduce
//
// (the optimizer step stays in Run, shared by both modes). The machine has
// two modes, chosen once per run:
//
// Whole-batch mode (Shards == 1): the whole batch is one shard, batch-norm
// statistics update inline during the forward pass, and gradients are left
// exactly as backward accumulated them.
//
// Sharded mode (Shards > 1): the batch's permutation slice is split into
// Shards contiguous balanced shards (dataset.Shard). Each shard is
// forward/backwarded independently — batch norm sees shard-local batch
// statistics, the loss is scaled by the global batch size — and its
// flattened gradient, loss, and batch-norm moments become that shard's
// partial. The reduce stage then zeroes the gradients, folds the partials
// in ascending shard order, sums the shard losses in shard order, and
// replays the batch-norm moment updates in shard order. The fold order is
// fixed, so the post-step model state is byte-identical at every thread
// count — the run's result depends on Shards (a semantic knob) but never
// on how the work was scheduled.
type stepMachine struct {
	m      *nn.Model
	shards int
	loss   func(logits *tensor.Tensor, idx []int) (float64, *tensor.Tensor) // Config.Loss; nil = cross-entropy

	x      *tensor.Tensor
	y      []int
	sample int

	bx *tensor.Tensor // gather buffer, rows = max shard size (== batch in whole-batch mode)
	by []int

	bn      []*nn.BatchNorm2D // batch-norm layers in walk order (sharded mode)
	parts   *compute.PartialSet
	moments [][]float64 // per-shard moment vectors, layer-major (C means, C variances)
	losses  []float64

	timed                        bool
	tForward, tBackward, tReduce time.Duration
}

// newStepMachine builds the machine for one run. In sharded mode it flips
// every batch-norm layer into deferred-statistics mode; close undoes that.
func newStepMachine(m *nn.Model, x *tensor.Tensor, y []int, batch, shards int,
	loss func(*tensor.Tensor, []int) (float64, *tensor.Tensor)) *stepMachine {
	n := x.Dim(0)
	sm := &stepMachine{
		m: m, shards: shards, loss: loss,
		x: x, y: y, sample: x.Len() / n,
	}
	rows := batch
	if shards > 1 {
		// Max shard size of a balanced split.
		rows = (batch + shards - 1) / shards
	}
	sm.bx = tensor.New(rows, sm.sample)
	sm.by = make([]int, rows)
	if shards == 1 {
		return sm
	}
	bnLen := 0
	nn.Walk(m.Net, func(l nn.Layer) {
		switch t := l.(type) {
		case *nn.BatchNorm2D:
			t.DeferStats = true
			sm.bn = append(sm.bn, t)
			bnLen += 2 * t.C
		case *nn.Dropout:
			// Dropout draws its masks from one sequential RNG stream that
			// no sharded run has been pinned against (no current
			// architecture trains with Dropout), so refuse rather than
			// train an unchecked configuration.
			panic("train: sharded training does not support Dropout")
		}
	})
	sm.parts = compute.NewPartialSet(shards, m.NumParams())
	sm.moments = make([][]float64, shards)
	for k := range sm.moments {
		sm.moments[k] = make([]float64, bnLen)
	}
	sm.losses = make([]float64, shards)
	return sm
}

// close restores the batch-norm layers' inline-statistics mode.
func (sm *stepMachine) close() {
	for _, b := range sm.bn {
		b.DeferStats = false
	}
}

// step runs one batch through the stage machine and returns its data loss.
// idx is the batch's slice of the epoch permutation. The caller applies
// the regularizer, gradient clipping, and the optimizer step afterwards.
func (sm *stepMachine) step(idx []int) float64 {
	if sm.shards == 1 {
		return sm.stepWhole(idx)
	}

	// Stage: shard + forward/backward partials, one shard at a time.
	for k := 0; k < sm.shards; k++ {
		lo, hi := dataset.Shard(len(idx), k, sm.shards)
		bs := hi - lo
		gather(sm.bx, sm.by, sm.x, sm.y, idx[lo:hi])
		batch := tensor.FromSlice(sm.bx.Data()[:bs*sm.sample], append([]int{bs}, sm.m.InputShape...)...)
		sm.m.ZeroGrad()
		var t0 time.Time
		if sm.timed {
			t0 = time.Now()
		}
		logits := sm.m.ForwardTrain(batch)
		loss, grad := nn.SoftmaxCrossEntropyTotal(logits, sm.by[:bs], len(idx))
		if sm.timed {
			t1 := time.Now()
			sm.tForward += t1.Sub(t0)
			t0 = t1
		}
		sm.m.Backward(grad)
		sm.m.ReadGrads(sm.parts.Partial(k))
		sm.captureMoments(k)
		sm.losses[k] = loss
		if sm.timed {
			sm.tBackward += time.Since(t0)
		}
	}

	// Stage: global reduce — a fixed left fold in ascending shard order.
	var t0 time.Time
	if sm.timed {
		t0 = time.Now()
	}
	sm.m.ZeroGrad()
	loss := 0.0
	for k := 0; k < sm.shards; k++ {
		sm.m.AddGrads(sm.parts.Partial(k))
		loss += sm.losses[k]
	}
	for k := 0; k < sm.shards; k++ {
		off := 0
		for _, b := range sm.bn {
			b.ApplyBatchStats(sm.moments[k][off:off+b.C], sm.moments[k][off+b.C:off+2*b.C])
			off += 2 * b.C
		}
	}
	if sm.timed {
		sm.tReduce += time.Since(t0)
	}
	return loss
}

// stepWhole is the whole-batch path. The loss is Config.Loss when set, else
// softmax cross-entropy against the gathered labels.
func (sm *stepMachine) stepWhole(idx []int) float64 {
	bs := len(idx)
	gather(sm.bx, sm.by, sm.x, sm.y, idx)
	batch := sm.bx.Reshape(append([]int{bs}, sm.m.InputShape...)...)
	sm.m.ZeroGrad()
	var t0 time.Time
	if sm.timed {
		t0 = time.Now()
	}
	logits := sm.m.ForwardTrain(batch)
	var loss float64
	var grad *tensor.Tensor
	if sm.loss != nil {
		loss, grad = sm.loss(logits, idx)
	} else {
		loss, grad = nn.SoftmaxCrossEntropy(logits, sm.by[:bs])
	}
	if sm.timed {
		t1 := time.Now()
		sm.tForward += t1.Sub(t0)
		t0 = t1
	}
	sm.m.Backward(grad)
	if sm.timed {
		sm.tBackward += time.Since(t0)
	}
	return loss
}

// captureMoments snapshots every batch-norm layer's batch moments from the
// shard that just ran forward, layer-major into the shard's moment vector.
func (sm *stepMachine) captureMoments(k int) {
	dst := sm.moments[k]
	off := 0
	for _, b := range sm.bn {
		mu, va := b.BatchStats()
		copy(dst[off:off+b.C], mu)
		copy(dst[off+b.C:off+2*b.C], va)
		off += 2 * b.C
	}
}

// drainTimings returns and resets the per-phase accumulators (called once
// per epoch by Run).
func (sm *stepMachine) drainTimings() (fwd, bwd, red time.Duration) {
	fwd, bwd, red = sm.tForward, sm.tBackward, sm.tReduce
	sm.tForward, sm.tBackward, sm.tReduce = 0, 0, 0
	return
}

package train

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// convProblem builds a tiny image classification problem plus a fresh conv
// model with fixed seeds, so repeated calls are bit-identical.
func convProblem() (*tensor.Tensor, []int, func() *nn.Model) {
	rng := rand.New(rand.NewSource(21))
	n := 48
	x := tensor.New(n, 1, 8, 8).RandN(rng, 0, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = i % 4
	}
	build := func() *nn.Model {
		return nn.NewResNet(nn.ResNetConfig{
			InC: 1, InH: 8, InW: 8, Classes: 4,
			Widths: []int{4, 8}, Blocks: []int{1, 1}, Seed: 22,
		})
	}
	return x, y, build
}

// runDigest is the SHA-256 of the encoded final checkpoint (parameters,
// batch-norm running statistics, optimizer state and epoch stats) of the
// run in TestRunBitIdenticalAcrossThreadCounts. Any change to the training
// step, the optimizer or the checkpoint's wire shape moves it.
const runDigest = "6be2381a03ac3165645b096b0f7606a88e6a455fb6bcdd4477d67c1b67ead565"

// TestRunBitIdenticalAcrossThreadCounts pins the repo's reproducibility
// guarantee end to end: a full training run — shuffling, forward, backward,
// gradient clipping, momentum updates, batch-norm running stats — produces
// bit-identical weights and losses for every Threads value, and its final
// checkpoint encodes to runDigest. The threat model depends on this: a
// released model is only auditable if the training run that produced it can
// be replayed exactly, regardless of the machine's core count.
func TestRunBitIdenticalAcrossThreadCounts(t *testing.T) {
	x, y, build := convProblem()
	const epochs = 2
	runOne := func(threads int) ([]float64, []EpochStats, string) {
		m := build()
		opt := NewSGD(0.05, 0.9, 0)
		res := Run(m, x, y, Config{
			Epochs: epochs, BatchSize: 8,
			Optimizer: opt,
			ClipNorm:  5,
			Seed:      23,
			Threads:   threads,
		})
		var flat []float64
		for _, p := range m.Params() {
			flat = append(flat, p.Value.Data()...)
		}
		var buf bytes.Buffer
		if err := EncodeCheckpoint(&buf, Capture(m, opt, epochs, res.Epochs)); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return flat, res.Epochs, hex.EncodeToString(sum[:])
	}

	refW, refE, _ := runOne(1)
	for _, threads := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			w, e, d := runOne(threads)
			if d != runDigest {
				t.Fatalf("threads=%d checkpoint digest %s, want %s", threads, d, runDigest)
			}
			if len(w) != len(refW) {
				t.Fatalf("param count %d != %d", len(w), len(refW))
			}
			for i := range refW {
				if w[i] != refW[i] {
					t.Fatalf("weight[%d]: %v (threads=%d) != %v (threads=1)", i, w[i], threads, refW[i])
				}
			}
			for i := range refE {
				if e[i].DataLoss != refE[i].DataLoss {
					t.Fatalf("epoch %d loss %v != %v", i, e[i].DataLoss, refE[i].DataLoss)
				}
			}
		})
	}
}

// shapesDigest is the SHA-256 of the encoded final checkpoint of the run in
// TestTrainBitIdenticalAcrossShapes. It differs from runDigest's run in the
// shape of the step: a batch size that leaves a ragged last batch (48 = 4×10
// + 8) and Adam's moment state in the checkpoint.
const shapesDigest = "4d04359970e710c70970b881c44c34a5407576b87e4bc400d45370ed8cf411ca"

// TestTrainBitIdenticalAcrossShapes pins the same guarantee for a second
// training shape: with a ragged last batch and Adam, the final checkpoint is
// byte-identical at every thread count and equal to shapesDigest.
func TestTrainBitIdenticalAcrossShapes(t *testing.T) {
	x, y, build := convProblem()
	const epochs = 2
	for _, threads := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			m := build()
			opt := NewAdam(0.01)
			res := Run(m, x, y, Config{
				Epochs: epochs, BatchSize: 10,
				Optimizer: opt, ClipNorm: 5, Seed: 25,
				Threads: threads,
			})
			var buf bytes.Buffer
			if err := EncodeCheckpoint(&buf, Capture(m, opt, epochs, res.Epochs)); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != shapesDigest {
				t.Fatalf("threads=%d checkpoint digest %s, want %s", threads, got, shapesDigest)
			}
		})
	}
}

// TestRunThreadsZeroMatchesSerial pins the default: Threads 0 (all cores)
// must also reproduce the serial run bit for bit.
func TestRunThreadsZeroMatchesSerial(t *testing.T) {
	x, y, build := convProblem()
	runOne := func(threads int) []float64 {
		m := build()
		Run(m, x, y, Config{
			Epochs: 1, BatchSize: 8,
			Optimizer: NewSGD(0.05, 0.9, 0),
			Seed:      24,
			Threads:   threads,
		})
		var flat []float64
		for _, p := range m.Params() {
			flat = append(flat, p.Value.Data()...)
		}
		return flat
	}
	a, b := runOne(1), runOne(0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weight[%d]: serial %v != default %v", i, a[i], b[i])
		}
	}
}

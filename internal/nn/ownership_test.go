package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/compute"
	"repro/internal/tensor"
)

// Model-level results stay with the caller even though the layers recycle
// their eval intermediates: a second call must neither share storage with
// the first result nor change it.
func TestModelResultsAreCallerOwned(t *testing.T) {
	m := detModel()
	rng := rand.New(rand.NewSource(91))
	m.ForwardTrain(tensor.New(6, 1, 8, 8).RandN(rng, 0, 1))
	xa := tensor.New(5, 1, 8, 8).RandN(rng, 0, 1)
	xb := tensor.New(5, 1, 8, 8).RandN(rng, 0, 1)

	t.Run("Forward", func(t *testing.T) {
		a := m.Forward(xa)
		snap := append([]float64(nil), a.Data()...)
		b := m.Forward(xb)
		if sameArray(a.Data(), b.Data()) {
			t.Fatal("two Forward results share a backing array")
		}
		assertUnchanged(t, a.Data(), snap)
	})

	t.Run("EvalBatch", func(t *testing.T) {
		a, err := m.EvalBatch(rowsOf(xa))
		if err != nil {
			t.Fatal(err)
		}
		snap := flatten(a)
		b, err := m.EvalBatch(rowsOf(xb))
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			for j := range b {
				if sameArray(a[i], b[j]) {
					t.Fatalf("EvalBatch rows %d and %d of successive calls share a backing array", i, j)
				}
			}
		}
		assertUnchanged(t, flatten(a), snap)
	})

	t.Run("Predict", func(t *testing.T) {
		a := m.Predict(xa, 2)
		snap := append([]int(nil), a...)
		b := m.Predict(xb, 2)
		if &a[0] == &b[0] {
			t.Fatal("two Predict results share a backing array")
		}
		for i := range snap {
			if a[i] != snap[i] {
				t.Fatalf("first Predict result changed at %d: %d -> %d", i, snap[i], a[i])
			}
		}
	})
}

func rowsOf(x *tensor.Tensor) [][]float64 {
	n := x.Dim(0)
	u := x.Len() / n
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = x.Data()[i*u : (i+1)*u]
	}
	return rows
}

func flatten(rows [][]float64) []float64 {
	var out []float64
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

func assertUnchanged(t *testing.T, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("first result changed at %d: %v -> %v", i, want[i], got[i])
		}
	}
}

// reluRef and leakyRef are the compare-and-branch activations the
// branch-free kernels replaced, kept as the reference for bit-exactness.
func reluRef(x []float64) (out []float64, mask []bool) {
	out = append([]float64(nil), x...)
	mask = make([]bool, len(x))
	for i := range out {
		pos := out[i] > 0
		if !pos {
			out[i] = 0
		}
		mask[i] = pos
	}
	return out, mask
}

func leakyRef(x []float64, alpha float64) (out []float64, mask []bool) {
	out = append([]float64(nil), x...)
	mask = make([]bool, len(x))
	for i := range out {
		pos := out[i] > 0
		if !pos {
			out[i] *= alpha
		}
		mask[i] = pos
	}
	return out, mask
}

func backwardRef(g []float64, mask []bool, alpha float64, leaky bool) []float64 {
	out := append([]float64(nil), g...)
	for i := range out {
		if !mask[i] {
			if leaky {
				out[i] *= alpha
			} else {
				out[i] = 0
			}
		}
	}
	return out
}

// edgeValues covers NaNs with payloads and sign bits, signed zeros,
// infinities, subnormals, and ordinary values.
func edgeValues() []float64 {
	bits := []uint64{
		0x7ff8000000000000, 0x7ff8000000000001, 0xfff8000000000abc, // quiet NaNs
		0x7ff0000000000001, 0xfff0000000000123, // signalling NaNs
		0x0000000000000000, 0x8000000000000000, // ±0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x0000000000000001, 0x8000000000000001, // ±smallest subnormal
		0x000fffffffffffff, 0x800fffffffffffff, // ±largest subnormal
		0x0010000000000000, 0x8010000000000000, // ±smallest normal
	}
	var v []float64
	for _, b := range bits {
		v = append(v, math.Float64frombits(b))
	}
	return append(v, 1, -1, 0.5, -2.75, math.MaxFloat64, -math.MaxFloat64)
}

func TestActivationsBitExactOnEdgeValues(t *testing.T) {
	xs := edgeValues()
	// Gradients over the same edge set, rotated so every mask value meets
	// every kind of gradient value.
	gs := append(append([]float64(nil), xs[7:]...), xs[:7]...)
	x := tensor.FromSlice(xs, 1, len(xs))
	g := tensor.FromSlice(gs, 1, len(gs))
	for _, ctx := range gradCtxs {
		t.Run(fmt.Sprintf("relu/threads=%d", ctx.Threads()), func(t *testing.T) {
			want, mask := reluRef(xs)
			r := NewReLU("r")
			assertBits(t, "eval forward", r.Forward(ctx, x, false).Data(), want)
			assertBits(t, "train forward", r.Forward(ctx, x, true).Data(), want)
			assertBits(t, "backward", r.Backward(ctx, g).Data(), backwardRef(gs, mask, 0, false))
		})
		for _, alpha := range []float64{0, 0.1, -0.3, math.Inf(1)} {
			t.Run(fmt.Sprintf("leaky%v/threads=%d", alpha, ctx.Threads()), func(t *testing.T) {
				want, mask := leakyRef(xs, alpha)
				r := NewLeakyReLU("lr", alpha)
				assertBits(t, "eval forward", r.Forward(ctx, x, false).Data(), want)
				assertBits(t, "train forward", r.Forward(ctx, x, true).Data(), want)
				assertBits(t, "backward", r.Backward(ctx, g).Data(), backwardRef(gs, mask, alpha, true))
			})
		}
	}
}

func assertBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %#016x, want %#016x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// Each context owns its step buffers, so models evaluating concurrently on
// separate contexts — one of them swapping in a new model midway, as a
// serving hot swap does — must reproduce their serial logits bit for bit.
// Run under -race by make race-fast.
func TestStepBuffersIsolatedAcrossContexts(t *testing.T) {
	build := func(seed int64) *Model {
		m := NewResNet(ResNetConfig{
			InC: 1, InH: 8, InW: 8, Classes: 4,
			Widths: []int{4, 8}, Blocks: []int{1, 1}, Seed: seed,
		})
		m.ForwardTrain(tensor.New(6, 1, 8, 8).RandN(rand.New(rand.NewSource(seed)), 0, 1))
		return m
	}
	models := []*Model{build(101), build(102), build(103)}
	rng := rand.New(rand.NewSource(104))
	batches := make([][][]float64, 3)
	for i := range batches {
		batches[i] = rowsOf(tensor.New(3+i, 1, 8, 8).RandN(rng, 0, 1))
	}
	// Serial references: every model on every batch.
	ref := make([][][][]float64, len(models))
	for mi, m := range models {
		m.SetCtx(compute.Serial())
		for _, b := range batches {
			rows, err := m.EvalBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			ref[mi] = append(ref[mi], rows)
		}
	}

	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	run := func(ctx *compute.Ctx, pick func(round int) int) {
		defer wg.Done()
		defer ctx.Close()
		cur := -1
		for round := 0; round < rounds; round++ {
			mi := pick(round)
			if mi != cur {
				models[mi].SetCtx(ctx) // hot swap: the next model takes over the context
				cur = mi
			}
			bi := round % len(batches)
			rows, err := models[mi].EvalBatch(batches[bi])
			if err != nil {
				errs <- err
				return
			}
			for i, row := range rows {
				for j, v := range row {
					if math.Float64bits(v) != math.Float64bits(ref[mi][bi][i][j]) {
						errs <- fmt.Errorf("model %d round %d: logit [%d][%d] %v != serial %v", mi, round, i, j, v, ref[mi][bi][i][j])
						return
					}
				}
			}
		}
	}
	wg.Add(2)
	go run(compute.New(2), func(int) int { return 0 })
	go run(compute.New(2), func(round int) int {
		if round < rounds/2 {
			return 1
		}
		return 2
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

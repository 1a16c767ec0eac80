package nn_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Steady-state allocation gates for the release-preset MiniResNet. Layers
// reuse their training buffers from step to step and eval intermediates go
// back to the context's step buffers, so after warm-up a training step and
// an eval batch allocate only small headers (tensor structs, closures).
// Before buffer reuse one step allocated 15.4 MB and EvalBatch(16) 3.36 MB.

const (
	maxTrainStepBytes = 1 << 20        // per ForwardTrain + Backward at batch 32
	maxEvalB16Bytes   = 3_360_000 / 10 // per steady-state EvalBatch of 16
)

// allocBytes returns the heap bytes allocated per call of fn over reps
// calls.
func allocBytes(reps int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(reps)
}

func TestTrainStepAndEvalAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			ctx := compute.New(threads)
			defer ctx.Close()
			m := nn.NewResNet(core.CIFARRelease().ArchConfig(1))
			m.SetCtx(ctx)
			rng := rand.New(rand.NewSource(2))
			x := tensor.New(append([]int{32}, m.InputShape...)...).RandN(rng, 0, 1)
			grad := tensor.New(32, m.Classes).RandN(rng, 0, 1)
			step := func() {
				m.ForwardTrain(x)
				m.Backward(grad)
			}
			step()
			step()
			b := allocBytes(5, step)
			t.Logf("train step %.0f B", b)
			if b > maxTrainStepBytes {
				t.Errorf("train step allocates %.0f B, gate %d B", b, maxTrainStepBytes)
			}

			rows := make([][]float64, 16)
			for i := range rows {
				rows[i] = tensor.New(m.InputLen()).RandN(rng, 0, 1).Data()
			}
			eval := func() {
				if _, err := m.EvalBatch(rows); err != nil {
					t.Fatal(err)
				}
			}
			eval()
			eval()
			b = allocBytes(5, eval)
			t.Logf("eval b16 %.0f B", b)
			if b > maxEvalB16Bytes {
				t.Errorf("EvalBatch(16) allocates %.0f B, gate %d B", b, maxEvalB16Bytes)
			}
		})
	}
}

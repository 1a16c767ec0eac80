package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Micro-measurements of single layers, made in the traced run by calling
// each package's public functions on the preset's model shapes.

const (
	trainBatch = 32
	layerReps  = 15
)

// trainLayerMetrics times one training step (ForwardTrain + Backward at
// batch 32) of the CIFAR-release model, each top-level layer's forward and
// backward, and the model's largest conv GEMMs.
func trainLayerMetrics(seed int64, metrics map[string]float64) error {
	preset := core.CIFARRelease()
	m := nn.NewResNet(preset.ArchConfig(seed))
	m.SetThreads(0)
	rng := rand.New(rand.NewSource(seed))
	x := randTensor(rng, append([]int{trainBatch}, m.InputShape...)...)
	grad := randTensor(rng, trainBatch, m.Classes)
	step := func() {
		m.ForwardTrain(x)
		m.Backward(grad)
	}
	step()
	step()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps := timeReps(layerReps, step)
	runtime.ReadMemStats(&after)
	stepMS := median(steps)
	metrics["nn.train_step_ms"] = stepMS
	metrics["nn.train_step_alloc_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / layerReps
	metrics["nn.train_step_allocs"] = float64(after.Mallocs-before.Mallocs) / layerReps

	seq, ok := m.Net.(*nn.Sequential)
	if !ok {
		return fmt.Errorf("model top level is %T, not a Sequential", m.Net)
	}
	ctx := m.Ctx()
	fwd := make([][]float64, len(seq.Layers))
	bwd := make([][]float64, len(seq.Layers))
	for rep := 0; rep < layerReps+1; rep++ {
		h := x
		for i, l := range seq.Layers {
			start := time.Now()
			h = l.Forward(ctx, h, true)
			fwd[i] = append(fwd[i], ms(time.Since(start)))
		}
		g := grad
		for i := len(seq.Layers) - 1; i >= 0; i-- {
			start := time.Now()
			g = seq.Layers[i].Backward(ctx, g)
			bwd[i] = append(bwd[i], ms(time.Since(start)))
		}
	}
	sum := 0.0
	for i, l := range seq.Layers {
		// The first repetition warms the layer's buffers and is dropped.
		f, b := median(fwd[i][1:]), median(bwd[i][1:])
		name := fmt.Sprintf("nn.layer.%02d-%s", i, layerKind(l))
		metrics[name+".fwd_ms"] = f
		metrics[name+".bwd_ms"] = b
		sum += f + b
	}
	metrics["nn.layer_sum_gap_pct"] = 100 * (stepMS - sum) / stepMS

	flops := 0.0
	var gemms [][3]int
	nn.Walk(m.Net, func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Conv2D:
			d := v.Dims
			gemms = append(gemms, [3]int{d.OutC, d.ColRows, d.Cols})
			// Forward, weight-gradient and input-gradient GEMMs.
			flops += 3 * 2 * float64(d.OutC*d.ColRows*d.Cols) * trainBatch
		case *nn.Dense:
			flops += 3 * 2 * float64(v.In*v.Out) * trainBatch
		}
	})
	metrics["tensor.train_gflops"] = flops / (stepMS / 1000) / 1e9
	for _, g := range largestGEMMs(gemms, 3) {
		metrics[fmt.Sprintf("tensor.matmul_gflops.%dx%dx%d", g[0], g[1], g[2])] = matmulGFLOPS(rng, g)
	}
	return nil
}

// layerKind names a layer's type: *nn.Conv2D → conv2d.
func layerKind(l nn.Layer) string {
	t := fmt.Sprintf("%T", l)
	return strings.ToLower(t[strings.LastIndex(t, ".")+1:])
}

// largestGEMMs returns the n distinct shapes with the most multiply-adds.
func largestGEMMs(gemms [][3]int, n int) [][3]int {
	seen := map[[3]int]bool{}
	var uniq [][3]int
	for _, g := range gemms {
		if !seen[g] {
			seen[g] = true
			uniq = append(uniq, g)
		}
	}
	sort.SliceStable(uniq, func(i, j int) bool {
		a, b := uniq[i], uniq[j]
		return a[0]*a[1]*a[2] > b[0]*b[1]*b[2]
	})
	return uniq[:min(n, len(uniq))]
}

// matmulGFLOPS times tensor.MatMulSlice on one m×k×n shape.
func matmulGFLOPS(rng *rand.Rand, g [3]int) float64 {
	m, k, n := g[0], g[1], g[2]
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	dst := make([]float64, m*n)
	const inner = 200
	reps := timeReps(layerReps, func() {
		for i := 0; i < inner; i++ {
			tensor.MatMulSlice(dst, a, b, m, k, n)
		}
	})
	return 2 * float64(m*k*n) * inner / (median(reps) / 1000) / 1e9
}

// evalLayerMetrics times inference through EvalBatch at batch 1, 16 and 64
// on a dense model and, when one is given, at batch 16 on a
// codebook-native one.
func evalLayerMetrics(seed int64, dense, native *nn.Model, metrics map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	batch := func(n int) [][]float64 {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = randSlice(rng, dense.InputLen())
		}
		return rows
	}
	var evalErr error
	timeEval := func(m *nn.Model, rows [][]float64) float64 {
		m.EvalBatch(rows)
		return median(timeReps(layerReps, func() {
			if _, err := m.EvalBatch(rows); err != nil {
				evalErr = err
			}
		}))
	}
	b16 := batch(16)
	metrics["nn.eval_ms.b1"] = timeEval(dense, batch(1))
	metrics["nn.eval_ms.b16"] = timeEval(dense, b16)
	metrics["nn.eval_ms.b64"] = timeEval(dense, batch(64))
	if native != nil {
		metrics["nn.eval_ms.native-b16"] = timeEval(native, b16)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < layerReps; i++ {
		dense.EvalBatch(b16)
	}
	runtime.ReadMemStats(&after)
	metrics["nn.eval_alloc_bytes.b16"] = float64(after.TotalAlloc-before.TotalAlloc) / layerReps
	return evalErr
}

// apiLayerMetrics times the /v1 predict body codec at 64 samples: encoding
// a request and decoding a response, as the extraction client does.
func apiLayerMetrics(seed int64, inputLen, classes int, metrics map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	req := api.PredictRequest{API: api.Version, Model: "victim"}
	resp := api.PredictResponse{API: api.Version, Model: "victim", Digest: strings.Repeat("0", 64)}
	for i := 0; i < 64; i++ {
		req.Inputs = append(req.Inputs, randSlice(rng, inputLen))
		resp.Predictions = append(resp.Predictions, api.Prediction{
			Probs: randSlice(rng, classes), Logits: randSlice(rng, classes),
		})
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	var codecErr error
	metrics["api.encode_ms.b64"] = median(timeReps(layerReps, func() {
		if _, err := json.Marshal(req); err != nil {
			codecErr = err
		}
	}))
	metrics["api.decode_ms.b64"] = median(timeReps(layerReps, func() {
		var pr api.PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			codecErr = err
		}
	}))
	return codecErr
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	copy(t.Data(), randSlice(rng, t.Len()))
	return t
}

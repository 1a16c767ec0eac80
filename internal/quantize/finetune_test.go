package quantize

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// pullReg drags every weight toward a fixed payload vector, a stand-in for
// the attack's correlation penalty.
type pullReg struct {
	target []float64
	rate   float64
}

func (r pullReg) Apply(m *nn.Model) float64 {
	i := 0
	loss := 0.0
	for _, p := range m.WeightParams() {
		gd := p.Grad.Data()
		vd := p.Value.Data()
		for j := range gd {
			if i < len(r.target) {
				d := vd[j] - r.target[i]
				gd[j] += r.rate * d
				loss += 0.5 * r.rate * d * d
				i++
			}
		}
	}
	return loss
}

// payloadDistance measures how far the current weights drifted from the
// payload vector.
func payloadDistance(m *nn.Model, target []float64) float64 {
	i := 0
	s := 0.0
	for _, p := range m.WeightParams() {
		for _, v := range p.Value.Data() {
			if i < len(target) {
				d := v - target[i]
				s += d * d
				i++
			}
		}
	}
	return math.Sqrt(s / float64(len(target)))
}

// Fine-tuning with the regularizer kept on must preserve the payload
// better than benign fine-tuning — the reason the malicious pipeline ships
// its own fine-tuner (core.Config.KeepRegDuringFineTune).
func TestFineTuneWithRegPreservesPayload(t *testing.T) {
	target := benchPayload(200)

	run := func(withReg bool) float64 {
		m := testModel(77)
		// Pre-load the payload into the weights and quantize.
		i := 0
		for _, p := range m.WeightParams() {
			vd := p.Value.Data()
			for j := range vd {
				if i < len(target) {
					vd[j] = target[i]
					i++
				}
			}
		}
		a := QuantizeModel(m, Linear{LloydIters: 3}, 16)
		x, y := trainingBlob(200, 77)
		cfg := FineTuneConfig{Epochs: 6, BatchSize: 32, LR: 0.05, Seed: 77}
		if withReg {
			cfg.Reg = pullReg{target: target, rate: 5}
		}
		FineTune(m, a, x, y, cfg)
		return payloadDistance(m, target)
	}

	distReg := run(true)
	distBenign := run(false)
	if distReg >= distBenign {
		t.Fatalf("regularized fine-tune drifted more: %v vs %v", distReg, distBenign)
	}
}

func benchPayload(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.004*float64(i%256) - 0.5
	}
	return out
}

// TestMain fixes gob's type numbering before any test runs. gob numbers
// stream types process-wide in first-use order, so without this the
// encoded bytes TestFineTuneGolden hashes would depend on which codec test
// happened to run first.
func TestMain(m *testing.M) {
	_ = gob.NewEncoder(io.Discard).Encode(&train.Checkpoint{})
	_ = gob.NewEncoder(io.Discard).Encode(&AppliedBlob{})
	os.Exit(m.Run())
}

// fineTuneDigests runs a small FineTune over a quantized conv model (batch
// norm included, so the running statistics are covered too) and returns
// the SHA-256 of the resulting DACCKP1 model state and DACQAP1 record.
func fineTuneDigests(t *testing.T, withReg bool) (state, record string) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(40, 1, 8, 8).RandN(rng, 0, 1)
	y := make([]int, 40)
	for i := range y {
		y[i] = i % 4
	}
	m := nn.NewResNet(nn.ResNetConfig{
		InC: 1, InH: 8, InW: 8, Classes: 4,
		Widths: []int{4, 8}, Blocks: []int{1, 1}, Seed: 6,
	})
	a := QuantizeModel(m, Linear{LloydIters: 3}, 16)
	cfg := FineTuneConfig{Epochs: 2, BatchSize: 8, LR: 0.05, Seed: 7}
	if withReg {
		cfg.Reg = pullReg{target: benchPayload(300), rate: 5}
	}
	FineTune(m, a, x, y, cfg)

	var buf bytes.Buffer
	if err := train.EncodeCheckpoint(&buf, train.Capture(m, nil, cfg.Epochs, nil)); err != nil {
		t.Fatal(err)
	}
	s := sha256.Sum256(buf.Bytes())
	buf.Reset()
	if err := EncodeApplied(&buf, Snapshot(a)); err != nil {
		t.Fatal(err)
	}
	r := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(s[:]), hex.EncodeToString(r[:])
}

// TestFineTuneGolden pins fine-tuning's output bytes — model state and
// quantization record, with and without a regularizer — so a change to
// the fine-tuning loop that moves a single bit fails here.
func TestFineTuneGolden(t *testing.T) {
	for _, tc := range []struct {
		reg           bool
		state, record string
	}{
		{false,
			"f4cb31fd11dfeeb2b1a07665c57e819391398c846d4531b2b4e91003632e2020",
			"3755fafaf076999f4f50e93c542a310baf224f02f2f19778ab8964ad93331c31"},
		{true,
			"a063ce5ad01ae154bb63e4917200578075eb9e56126f8bc9203f076960a5afc0",
			"6db9f681fcd109adcce4f744a7baa8e5435dd0e765840be84aa704122cf0b46f"},
	} {
		state, record := fineTuneDigests(t, tc.reg)
		if state != tc.state || record != tc.record {
			t.Errorf("reg=%v: model state %s, record %s; want %s, %s", tc.reg, state, record, tc.state, tc.record)
		}
	}
}

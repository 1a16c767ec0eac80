package extract

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func testArch() nn.ResNetConfig {
	return nn.ResNetConfig{
		InC: 1, InH: 8, InW: 8, Classes: 4,
		Widths: []int{4, 8}, Blocks: []int{1, 1}, Seed: 77,
	}
}

// fakeVictim answers predictions from a fixed deterministic rule: the
// class is the argmax of per-class sums over input quarters, probs are a
// softmax over those sums. soft=false strips probs (a defended victim);
// denyAfter > 0 refuses with budget_exhausted once that many samples have
// been answered.
type fakeVictim struct {
	classes   int
	soft      bool
	mode      string
	denyAfter int
	answered  int
}

func (f *fakeVictim) Predict(inputs [][]float64) ([]api.Prediction, string, error) {
	if f.denyAfter > 0 && f.answered >= f.denyAfter {
		return nil, "", api.Error{Message: "budget", Code: api.CodeBudgetExhausted}
	}
	preds := make([]api.Prediction, len(inputs))
	for i, in := range inputs {
		scores := make([]float64, f.classes)
		for j, v := range in {
			scores[j%f.classes] += v
		}
		best, sum := 0, 0.0
		for c, s := range scores {
			if s > scores[best] {
				best = c
			}
			scores[c] = math.Exp(s / float64(len(in)))
			sum += scores[c]
		}
		for c := range scores {
			scores[c] /= sum
		}
		preds[i] = api.Prediction{Class: best}
		if f.soft {
			preds[i].Probs = scores
		}
	}
	f.answered += len(inputs)
	return preds, f.mode, nil
}

func TestStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := NewRandom(16)
	out := random.Next(rng, 5)
	if len(out) != 5 || len(out[0]) != 16 {
		t.Fatalf("random: got %d samples of %d", len(out), len(out[0]))
	}
	for _, in := range out {
		for _, v := range in {
			if v < 0 || v >= 1 {
				t.Fatalf("random pixel %v outside [0,1)", v)
			}
		}
	}

	pool := [][]float64{{1, 2, 3}, {4, 5, 6}}
	prior := NewPrior(pool)
	for _, in := range prior.Next(rng, 8) {
		if !reflect.DeepEqual(in, pool[0]) && !reflect.DeepEqual(in, pool[1]) {
			t.Fatalf("prior draw %v not from the pool", in)
		}
	}
	// Prior returns copies, never aliases into the pool.
	draw := prior.Next(rng, 1)[0]
	draw[0] = -99
	if pool[0][0] == -99 || pool[1][0] == -99 {
		t.Fatal("prior draw aliases the pool")
	}

	jitter := NewJitter(pool, 0.01)
	a := jitter.Next(rand.New(rand.NewSource(7)), 4)
	b := jitter.Next(rand.New(rand.NewSource(7)), 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("jitter is not deterministic in the rng")
	}
	if reflect.DeepEqual(a[0], a[1]) && reflect.DeepEqual(a[1], a[2]) {
		t.Fatal("jitter produced identical samples")
	}
}

func TestByName(t *testing.T) {
	pool := [][]float64{{1}}
	for _, tc := range []struct {
		name string
		pool [][]float64
		ok   bool
	}{
		{"random", nil, true},
		{"jitter", pool, true},
		{"jitter", nil, false},
		{"prior", pool, true},
		{"prior", nil, false},
		{"bogus", pool, false},
	} {
		s, err := ByName(tc.name, 4, tc.pool, 0)
		if tc.ok && (err != nil || s.Name() != tc.name) {
			t.Errorf("ByName(%q): got %v, %v", tc.name, s, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("ByName(%q) with %d pool: want error", tc.name, len(tc.pool))
		}
	}
}

func TestHarvestDeterministic(t *testing.T) {
	cfg := Config{
		Budget: 100, BatchSize: 32, Strategy: NewRandom(64),
		Seed: 5, Surrogate: testArch(),
	}
	h1, err := HarvestQueries(&fakeVictim{classes: 4, soft: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HarvestQueries(&fakeVictim{classes: 4, soft: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("same seed produced different harvests")
	}
	if h1.Queries != 100 || h1.Requests != 4 || len(h1.Inputs) != 100 {
		t.Fatalf("spend: queries=%d requests=%d harvested=%d", h1.Queries, h1.Requests, len(h1.Inputs))
	}
	if !h1.Soft {
		t.Fatal("soft victim yielded hard targets")
	}
	for _, target := range h1.Targets {
		sum := 0.0
		for _, v := range target {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("soft target mass %v != 1", sum)
		}
	}
}

func TestHarvestHardTargets(t *testing.T) {
	cfg := Config{
		Budget: 10, BatchSize: 10, Strategy: NewRandom(64),
		Seed: 5, Surrogate: testArch(),
	}
	h, err := HarvestQueries(&fakeVictim{classes: 4, mode: "label"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Soft {
		t.Fatal("defended victim yielded soft targets")
	}
	if h.Mode != "label" {
		t.Fatalf("mode = %q, want label", h.Mode)
	}
	for _, target := range h.Targets {
		ones, sum := 0, 0.0
		for _, v := range target {
			sum += v
			if v == 1 {
				ones++
			}
		}
		if ones != 1 || sum != 1 {
			t.Fatalf("target %v is not one-hot", target)
		}
	}
}

func TestHarvestStopsOnBudgetExhausted(t *testing.T) {
	cfg := Config{
		Budget: 200, BatchSize: 25, Strategy: NewRandom(64),
		Seed: 5, Surrogate: testArch(),
	}
	h, err := HarvestQueries(&fakeVictim{classes: 4, soft: true, denyAfter: 50}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Inputs) != 50 {
		t.Fatalf("harvested %d, want the 50 answered before denial", len(h.Inputs))
	}
	if h.Denied != 1 {
		t.Fatalf("denied = %d, want 1", h.Denied)
	}
	// The denied request still counts as spend — the attacker sent it.
	if h.Queries != 75 {
		t.Fatalf("queries = %d, want 75", h.Queries)
	}

	// Denied before anything was gathered: the harvest is an error.
	drained := &fakeVictim{classes: 4, denyAfter: 1, answered: 1}
	if _, err := HarvestQueries(drained, Config{
		Budget: 10, BatchSize: 10, Strategy: NewRandom(64), Seed: 5,
		Surrogate: testArch(),
	}); err == nil {
		t.Fatal("empty harvest should be an error")
	}
}

// TestDistillLossMatchesHardLabelLoss pins the distillation loss to the
// training stack's own cross-entropy: with one-hot targets the two must
// agree bit-for-bit in both loss and gradient.
func TestDistillLossMatchesHardLabelLoss(t *testing.T) {
	const n, k = 6, 4
	rng := rand.New(rand.NewSource(3))
	logits := tensor.New(n, k).RandN(rng, 0, 2)
	labels := make([]int, n)
	targets := make([][]float64, n)
	for i := range labels {
		labels[i] = rng.Intn(k)
		targets[i] = make([]float64, k)
		targets[i][labels[i]] = 1
	}
	wantLoss, wantGrad := nn.SoftmaxCrossEntropy(logits, labels)
	gotLoss, gotGrad := distillLoss(logits, targets, k)
	if math.Abs(gotLoss-wantLoss) > 1e-12 {
		t.Fatalf("loss %v != %v", gotLoss, wantLoss)
	}
	wd, gd := wantGrad.Data(), gotGrad.Data()
	for i := range wd {
		if math.Abs(wd[i]-gd[i]) > 1e-12 {
			t.Fatalf("grad[%d] %v != %v", i, gd[i], wd[i])
		}
	}
}

// TestDistillDeterministic pins the attack's reproducibility contract:
// same harvest, same seed, same thread count or not — same surrogate.
func TestDistillDeterministic(t *testing.T) {
	cfg := Config{
		Budget: 64, BatchSize: 32, Strategy: NewRandom(64),
		Seed: 11, Surrogate: testArch(), Epochs: 2, TrainBatch: 16,
	}
	h, err := HarvestQueries(&fakeVictim{classes: 4, soft: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgA, cfgB := cfg, cfg
	cfgA.Threads = 1
	cfgB.Threads = 3
	a := Distill(h, cfgA)
	b := Distill(h, cfgB)
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		av, bv := pa[i].Value.Data(), pb[i].Value.Data()
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("param %d[%d]: %v != %v across thread counts", i, j, av[j], bv[j])
			}
		}
	}
}

// TestDistillGolden pins the surrogate's bytes — every parameter as
// little-endian float64 bits — for soft and hard (label-only) targets, so
// a change to the distillation loop that moves a single bit fails here.
func TestDistillGolden(t *testing.T) {
	for _, tc := range []struct {
		victim *fakeVictim
		want   string
	}{
		{&fakeVictim{classes: 4, soft: true}, "c5ee5d372837ad86258a03248255611d128e708c5bc3f4e75dde9e11aeb2adf6"},
		{&fakeVictim{classes: 4, mode: "label"}, "275baa922ccbc2f5015006f261888931df013bb0f76e89c2c670afa26f9cfc91"},
	} {
		cfg := Config{
			Budget: 96, BatchSize: 32, Strategy: NewRandom(64),
			Seed: 11, Surrogate: testArch(), Epochs: 3, TrainBatch: 16,
		}
		h, err := HarvestQueries(tc.victim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.New()
		var word [8]byte
		for _, p := range Distill(h, cfg).Params() {
			for _, v := range p.Value.Data() {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				sum.Write(word[:])
			}
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != tc.want {
			t.Errorf("soft=%v: surrogate digest %s, want %s", h.Soft, got, tc.want)
		}
	}
}

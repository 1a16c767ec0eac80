package attack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/img"
	"repro/internal/nn"
	"repro/internal/stats"
)

// --- correlation regularizer ---

// corrAndGrad is corrGrad returning a fresh gradient vector.
func corrAndGrad(theta, s []float64) (float64, []float64) {
	grad := make([]float64, len(theta))
	return corrGrad(theta, s, grad), grad
}

func TestCorrAndGradMatchesPearson(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	theta := make([]float64, 50)
	s := make([]float64, 50)
	for i := range theta {
		theta[i] = rng.NormFloat64()
		s[i] = rng.Float64() * 255
	}
	r, _ := corrAndGrad(theta, s)
	want := stats.Pearson(theta, s)
	if math.Abs(r-want) > 1e-12 {
		t.Fatalf("corr = %v, want %v", r, want)
	}
}

func TestCorrGradientFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	theta := make([]float64, 30)
	s := make([]float64, 30)
	for i := range theta {
		theta[i] = rng.NormFloat64()
		s[i] = rng.Float64() * 255
	}
	_, grad := corrAndGrad(theta, s)
	const h = 1e-6
	for i := range theta {
		orig := theta[i]
		theta[i] = orig + h
		rp, _ := corrAndGrad(theta, s)
		theta[i] = orig - h
		rm, _ := corrAndGrad(theta, s)
		theta[i] = orig
		want := (rp - rm) / (2 * h)
		if math.Abs(grad[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("grad[%d] = %v, want %v", i, grad[i], want)
		}
	}
}

func TestCorrGradShorterSecret(t *testing.T) {
	theta := []float64{1, 2, 3, 4, 5, 6}
	s := []float64{10, 20, 30} // only first 3 weights participate
	_, grad := corrAndGrad(theta, s)
	for i := 3; i < 6; i++ {
		if grad[i] != 0 {
			t.Fatalf("grad beyond secret length: grad[%d] = %v", i, grad[i])
		}
	}
}

func TestCorrGradDegenerateInputs(t *testing.T) {
	r, g := corrAndGrad([]float64{1}, []float64{2})
	if r != 0 || g[0] != 0 {
		t.Fatal("single-element corr must be 0")
	}
	r, _ = corrAndGrad([]float64{1, 1, 1}, []float64{1, 2, 3})
	if r != 0 {
		t.Fatal("constant theta corr must be 0")
	}
}

// Gradient ascent on the regularizer alone must drive |corr| toward 1.
func TestUniformRegDrivesCorrelation(t *testing.T) {
	m := nn.NewMLP("m", 10, []int{20}, 4, 3)
	rng := rand.New(rand.NewSource(3))
	secret := make([]float64, m.NumWeightParams())
	for i := range secret {
		secret[i] = rng.Float64() * 255
	}
	reg := NewUniformReg(m, 1.0, secret)
	for step := 0; step < 400; step++ {
		m.ZeroGrad()
		reg.Apply(m)
		for _, p := range m.WeightParams() {
			p.Value.AddScaled(-0.5, p.Grad)
		}
	}
	reg.Apply(m)
	r := reg.Correlations()[0]
	if math.Abs(r) < 0.95 {
		t.Fatalf("|corr| = %v after pure regularizer training, want > 0.95", math.Abs(r))
	}
}

func TestLayerwiseRegRespectsZeroLambda(t *testing.T) {
	m := nn.NewMLP("m", 6, []int{8, 8}, 3, 4)
	groups := m.GroupsByConvIndex([]int{1, 2})
	rng := rand.New(rand.NewSource(4))
	secrets := make([][]float64, 3)
	for i, g := range groups {
		secrets[i] = make([]float64, g.NumEl)
		for j := range secrets[i] {
			secrets[i][j] = rng.Float64() * 255
		}
	}
	reg := NewLayerwiseReg(groups, []float64{0, 0, 5}, secrets)
	m.ZeroGrad()
	reg.Apply(m)
	for _, p := range groups[0].Params {
		for _, g := range p.Grad.Data() {
			if g != 0 {
				t.Fatal("zero-lambda group received gradient")
			}
		}
	}
	nonzero := false
	for _, p := range groups[2].Params {
		for _, g := range p.Grad.Data() {
			if g != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("active group received no gradient")
	}
}

func TestLayerwisePKSharesSumToOne(t *testing.T) {
	m := nn.NewMLP("m", 6, []int{8, 8}, 3, 5)
	groups := m.GroupsByConvIndex([]int{1, 2})
	secrets := [][]float64{nil, {1, 2}, {3, 4}}
	reg := NewLayerwiseReg(groups, []float64{0, 2, 2}, secrets)
	sum := 0.0
	for i, tgt := range reg.Targets {
		if reg.Targets[i].Lambda != 0 {
			sum += tgt.PK
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("active P_k sum = %v, want 1", sum)
	}
}

// --- pre-processing ---

func TestSelectWindowFloorsMean(t *testing.T) {
	d := dataset.SyntheticCIFAR(dataset.DefaultCIFAR(300, false, 6))
	w := SelectWindow(d, 5)
	if w.Lo != math.Floor(d.StdMean()) {
		t.Fatalf("window lo %v, want floor(%v)", w.Lo, d.StdMean())
	}
	if w.Hi != w.Lo+5 {
		t.Fatalf("window hi %v", w.Hi)
	}
}

func TestCandidatesInsideWindow(t *testing.T) {
	d := dataset.SyntheticCIFAR(dataset.DefaultCIFAR(300, false, 7))
	w := SelectWindow(d, 5)
	for _, i := range Candidates(d, w) {
		s := d.Images[i].Std()
		if s <= w.Lo || s >= w.Hi {
			t.Fatalf("candidate %d std %v outside (%v, %v)", i, s, w.Lo, w.Hi)
		}
	}
}

func TestCapacity(t *testing.T) {
	if Capacity(1000, 256) != 3 {
		t.Fatalf("Capacity = %d", Capacity(1000, 256))
	}
	if Capacity(100, 0) != 0 {
		t.Fatal("zero pixel size must give zero capacity")
	}
}

func TestBuildPlanAssignsByCapacity(t *testing.T) {
	d := dataset.SyntheticCIFAR(dataset.DefaultCIFAR(2000, false, 8))
	m := nn.NewResNet(nn.DefaultCIFARConfig(1, 10))
	groups := m.GroupsByConvIndex([]int{5, 9})
	plan := BuildPlan(d, 5, groups, []float64{0, 0, 5}, 8)
	if len(plan.Groups) != 3 {
		t.Fatalf("plan groups = %d", len(plan.Groups))
	}
	if len(plan.Groups[0].Images) != 0 || len(plan.Groups[1].Images) != 0 {
		t.Fatal("zero-lambda groups must carry no images")
	}
	g3 := plan.Groups[2]
	u := 16 * 16
	wantCap := groups[2].NumEl / u
	if len(g3.Images) == 0 {
		t.Fatal("active group carries no images")
	}
	if len(g3.Images) > wantCap {
		t.Fatalf("assigned %d images beyond capacity %d", len(g3.Images), wantCap)
	}
	if len(g3.Secret) != len(g3.Images)*u {
		t.Fatalf("secret length %d for %d images", len(g3.Secret), len(g3.Images))
	}
	// All assigned images respect the std window.
	for _, di := range g3.DatasetIndices {
		s := d.Images[di].Std()
		if s <= plan.Window.Lo || s >= plan.Window.Hi {
			t.Fatalf("assigned image std %v outside window", s)
		}
	}
	if plan.TotalImages() != len(g3.Images) {
		t.Fatalf("TotalImages %d", plan.TotalImages())
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	d := dataset.SyntheticCIFAR(dataset.DefaultCIFAR(500, false, 9))
	m := nn.NewMLP("m", 256, []int{64}, 10, 9)
	groups := m.GroupsByConvIndex(nil)
	a := BuildPlan(d, 5, groups, []float64{3}, 42)
	b := BuildPlan(d, 5, groups, []float64{3}, 42)
	if len(a.Groups[0].DatasetIndices) != len(b.Groups[0].DatasetIndices) {
		t.Fatal("plan not deterministic")
	}
	for i := range a.Groups[0].DatasetIndices {
		if a.Groups[0].DatasetIndices[i] != b.Groups[0].DatasetIndices[i] {
			t.Fatal("plan selection not deterministic")
		}
	}
}

func TestUniformPlanUsesWholeDataset(t *testing.T) {
	d := dataset.SyntheticCIFAR(dataset.DefaultCIFAR(100, false, 10))
	m := nn.NewMLP("m", 256, []int{32}, 10, 10)
	group := m.GroupsByConvIndex(nil)[0]
	plan := UniformPlan(d, group, 3, 1)
	wantN := group.NumEl / 256
	if wantN > 100 {
		wantN = 100
	}
	if len(plan.Groups[0].Images) != wantN {
		t.Fatalf("uniform plan images = %d, want %d", len(plan.Groups[0].Images), wantN)
	}
}

// --- decode round trip ---

// If the weights are exactly an affine image payload, decoding must recover
// the images nearly perfectly. This is the decoder's core contract.
func TestDecodePerfectAffineEncoding(t *testing.T) {
	d := dataset.SyntheticCIFAR(dataset.DefaultCIFAR(400, false, 11))
	m := nn.NewMLP("m", 256, []int{40}, 10, 11)
	groups := m.GroupsByConvIndex(nil)
	plan := BuildPlan(d, 6, groups, []float64{5}, 11)
	pg := plan.Groups[0]
	if len(pg.Images) < 3 {
		t.Fatalf("too few planned images: %d", len(pg.Images))
	}
	// Write θ = a·s + b into the group weights.
	flat := groups[0].FlattenValues()
	for i, s := range pg.Secret {
		flat[i] = 0.004*s - 0.5
	}
	groups[0].ScatterValues(flat)
	recon := DecodeGroup(pg, groups[0], plan.ImageGeom, DecodeOptions{})
	score := ScoreReconstructions(pg.Images, recon)
	if score.MeanMAPE > 3 {
		t.Fatalf("affine decode MAPE = %v, want < 3", score.MeanMAPE)
	}
	if score.Recognizable != score.N {
		t.Fatalf("only %d/%d recognizable", score.Recognizable, score.N)
	}
}

// Negative-polarity encodings must decode equally well through the
// best-polarity path.
func TestDecodeNegativePolarity(t *testing.T) {
	d := dataset.SyntheticCIFAR(dataset.DefaultCIFAR(400, false, 12))
	m := nn.NewMLP("m", 256, []int{40}, 10, 12)
	groups := m.GroupsByConvIndex(nil)
	plan := BuildPlan(d, 6, groups, []float64{5}, 12)
	pg := plan.Groups[0]
	flat := groups[0].FlattenValues()
	for i, s := range pg.Secret {
		flat[i] = -0.004*s + 0.3 // negative correlation
	}
	groups[0].ScatterValues(flat)
	score, _ := BestPolarityDecode(pg, groups[0], plan.ImageGeom, DecodeOptions{})
	if score.MeanMAPE > 3 {
		t.Fatalf("negative-polarity decode MAPE = %v", score.MeanMAPE)
	}
}

func TestDecodeRobustToOutliers(t *testing.T) {
	d := dataset.SyntheticCIFAR(dataset.DefaultCIFAR(400, false, 13))
	m := nn.NewMLP("m", 256, []int{40}, 10, 13)
	groups := m.GroupsByConvIndex(nil)
	plan := BuildPlan(d, 6, groups, []float64{5}, 13)
	pg := plan.Groups[0]
	flat := groups[0].FlattenValues()
	for i, s := range pg.Secret {
		flat[i] = 0.004 * s
	}
	// Inject a few extreme outliers inside the payload range.
	flat[10] = 50
	flat[100] = -50
	groups[0].ScatterValues(flat)
	// Without trimming, the two outliers hijack the remap range and ruin
	// every image; with 0.5% trimming the decode survives at the cost of
	// a mild contrast stretch.
	plain := ScoreReconstructions(pg.Images,
		DecodeGroup(pg, groups[0], plan.ImageGeom, DecodeOptions{}))
	robust := ScoreReconstructions(pg.Images,
		DecodeGroup(pg, groups[0], plan.ImageGeom, DecodeOptions{Percentile: 0.005}))
	if robust.MeanMAPE > 12 {
		t.Fatalf("outlier-robust decode MAPE = %v", robust.MeanMAPE)
	}
	if robust.MeanMAPE >= plain.MeanMAPE {
		t.Fatalf("trimming did not help: %v vs %v", robust.MeanMAPE, plain.MeanMAPE)
	}
}

func TestDecodeEmptyGroup(t *testing.T) {
	m := nn.NewMLP("m", 4, nil, 2, 14)
	groups := m.GroupsByConvIndex(nil)
	if got := DecodeGroup(PlanGroup{}, groups[0], [3]int{1, 2, 2}, DecodeOptions{}); got != nil {
		t.Fatal("empty plan group must decode to nil")
	}
}

func TestGroupWeightsAsPixelsRange(t *testing.T) {
	m := nn.NewMLP("m", 16, []int{8}, 2, 15)
	g := m.GroupsByConvIndex(nil)[0]
	pix := GroupWeightsAsPixels(g, 0)
	if len(pix) != g.NumEl {
		t.Fatalf("pixel view length %d", len(pix))
	}
	for _, v := range pix {
		if v < 0 || v > 255 {
			t.Fatalf("pixel view value %v out of range", v)
		}
	}
	short := GroupWeightsAsPixels(g, 10)
	if len(short) != 10 {
		t.Fatalf("prefix view length %d", len(short))
	}
}

// --- scoring ---

func TestScoreReconstructionsCounts(t *testing.T) {
	base := img.New(1, 4, 4)
	for i := range base.Pix {
		base.Pix[i] = float64(i * 16)
	}
	good := base.Clone()
	bad := base.Clone()
	for i := range bad.Pix {
		bad.Pix[i] += 40
	}
	s := ScoreReconstructions([]*img.Image{base, base}, []*img.Image{good, bad})
	if s.N != 2 || s.Recognizable != 1 || s.Bad != 1 {
		t.Fatalf("score = %+v", s)
	}
	if s.MeanMAPE != 20 {
		t.Fatalf("mean MAPE = %v", s.MeanMAPE)
	}
	if s.RecognizablePercent() != 50 {
		t.Fatalf("recognizable%% = %v", s.RecognizablePercent())
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestScoreEmpty(t *testing.T) {
	s := ScoreReconstructions(nil, nil)
	if s.N != 0 || s.RecognizablePercent() != 0 || s.BadPercent() != 0 {
		t.Fatalf("empty score = %+v", s)
	}
}

// --- LSB baseline ---

func TestLSBRoundTrip(t *testing.T) {
	m := nn.NewMLP("m", 8, []int{16}, 4, 16)
	payload := []byte("the quick brown fox jumps over the lazy dog")
	written := EncodeLSB(m.WeightParams(), payload, 8)
	if written != len(payload)*8 {
		t.Fatalf("wrote %d bits, want %d", written, len(payload)*8)
	}
	got := DecodeLSB(m.WeightParams(), written, 8)
	if string(got) != string(payload) {
		t.Fatalf("decoded %q", got)
	}
}

func TestLSBDoesNotChangeValuesMuch(t *testing.T) {
	m := nn.NewMLP("m", 8, []int{16}, 4, 17)
	before := make([]float64, 0)
	for _, p := range m.WeightParams() {
		before = append(before, p.Value.Data()...)
	}
	EncodeLSB(m.WeightParams(), []byte{0xFF, 0x00, 0xAA}, 8)
	i := 0
	for _, p := range m.WeightParams() {
		for _, v := range p.Value.Data() {
			if math.Abs(v-before[i]) > 1e-10*(1+math.Abs(before[i])) {
				t.Fatalf("LSB embedding perturbed weight %d: %v -> %v", i, before[i], v)
			}
			i++
		}
	}
}

func TestLSBCapacity(t *testing.T) {
	m := nn.NewMLP("m", 8, nil, 4, 18)
	if got := LSBCapacityBits(m.WeightParams(), 8); got != 8*8*4 {
		t.Fatalf("capacity = %d", got)
	}
}

func TestLSBDestroyedByQuantization(t *testing.T) {
	m := nn.NewMLP("m", 16, []int{32}, 4, 19)
	payload := make([]byte, 64)
	rng := rand.New(rand.NewSource(19))
	rng.Read(payload)
	written := EncodeLSB(m.WeightParams(), payload, 8)
	// Simulate quantization: snap every weight to 16 levels.
	for _, p := range m.WeightParams() {
		vd := p.Value.Data()
		for i := range vd {
			vd[i] = math.Round(vd[i]*8) / 8
		}
	}
	got := DecodeLSB(m.WeightParams(), written, 8)
	ber := BitErrorRate(payload, got, written)
	if ber < 0.2 {
		t.Fatalf("LSB payload survived quantization: BER %v", ber)
	}
}

func TestBitErrorRate(t *testing.T) {
	if BitErrorRate([]byte{0xFF}, []byte{0x00}, 8) != 1 {
		t.Fatal("all-different BER must be 1")
	}
	if BitErrorRate([]byte{0xAA}, []byte{0xAA}, 8) != 0 {
		t.Fatal("identical BER must be 0")
	}
	if BitErrorRate(nil, nil, 0) != 0 {
		t.Fatal("empty BER must be 0")
	}
}

func TestLSBBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EncodeLSB(nil, nil, 0)
}

// --- sign baseline ---

func TestSignEncodingRoundTrip(t *testing.T) {
	m := nn.NewMLP("m", 10, []int{20}, 4, 20)
	payload := []byte("secret!")
	reg := NewSignEncodingReg(50, payload)
	// Pure regularizer descent drives signs to the payload.
	for step := 0; step < 2000; step++ {
		m.ZeroGrad()
		reg.Apply(m)
		for _, p := range m.WeightParams() {
			p.Value.AddScaled(-0.5, p.Grad)
		}
	}
	got := DecodeSignBits(m, reg.NumBits)
	if string(got) != string(payload) {
		t.Fatalf("decoded %q, want %q", got, payload)
	}
}

func TestSignCapacityOneBitPerWeight(t *testing.T) {
	m := nn.NewMLP("m", 10, nil, 4, 21)
	if SignCapacityBits(m) != m.NumWeightParams() {
		t.Fatal("sign capacity must be one bit per weight")
	}
}

func TestSignRegZeroLambdaNoop(t *testing.T) {
	m := nn.NewMLP("m", 4, nil, 2, 22)
	m.ZeroGrad()
	reg := NewSignEncodingReg(0, []byte{0xFF})
	if reg.Apply(m) != 0 {
		t.Fatal("zero-lambda sign reg must return 0")
	}
	for _, p := range m.WeightParams() {
		for _, g := range p.Grad.Data() {
			if g != 0 {
				t.Fatal("zero-lambda sign reg added gradient")
			}
		}
	}
}

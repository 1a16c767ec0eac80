package extract

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/api"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Config controls one extraction run: how many victim samples the attacker
// may spend, how queries are synthesized, and how the surrogate is
// distilled from the harvest.
type Config struct {
	// Budget is the total victim samples the attacker allows itself.
	Budget int
	// BatchSize is the samples per predict request. <= 0 selects 64.
	BatchSize int
	// Strategy synthesizes query inputs; required.
	Strategy Strategy
	// Seed drives query synthesis and distillation shuffling — the whole
	// attack is deterministic in it.
	Seed int64
	// Surrogate is the architecture the stolen function is distilled into
	// (the attacker's guess; it need not match the victim's).
	Surrogate nn.ResNetConfig
	// Epochs are the distillation passes over the harvest. <= 0 selects 30.
	Epochs int
	// LR is the Adam learning rate. <= 0 selects 0.003.
	LR float64
	// TrainBatch is the distillation minibatch size. <= 0 selects 32.
	TrainBatch int
	// Threads sets the surrogate's compute workers (0 = GOMAXPROCS).
	// Results are bit-identical for every value (the train contract).
	Threads int
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.LR <= 0 {
		c.LR = 0.003
	}
	if c.TrainBatch <= 0 {
		c.TrainBatch = 32
	}
	return c
}

// Harvest is the attacker's haul: every queried input paired with the
// target distribution the victim's answer yields. Full and rounded
// responses give soft targets (the victim's probs); top-1 and label-only
// responses degrade to one-hot targets — that information loss is exactly
// what those defenses are for.
type Harvest struct {
	Inputs  [][]float64
	Targets [][]float64
	// Soft reports whether targets carry the victim's probability mass
	// (false once a policy strips scores).
	Soft bool
	// Mode is the last response mode the victim answered with.
	Mode string
	// Queries and Requests are the spend; Denied counts requests the
	// victim refused with budget_exhausted (the harvest then stops early).
	Queries, Requests, Denied int
}

// HarvestQueries spends the budget against the victim: synthesize a batch,
// query, pair inputs with targets, repeat. A budget_exhausted answer ends
// the harvest early with whatever was gathered — the defense working as
// intended, not an attack failure.
func HarvestQueries(v Victim, cfg Config) (*Harvest, error) {
	cfg = cfg.withDefaults()
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("extract: Config.Strategy is required")
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("extract: Config.Budget must be positive")
	}
	classes := cfg.Surrogate.Classes
	if classes <= 0 {
		return nil, fmt.Errorf("extract: Config.Surrogate.Classes must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := &Harvest{Soft: true}
	for h.Queries < cfg.Budget {
		n := cfg.BatchSize
		if rem := cfg.Budget - h.Queries; n > rem {
			n = rem
		}
		inputs := cfg.Strategy.Next(rng, n)
		h.Requests++
		h.Queries += n
		preds, mode, err := v.Predict(inputs)
		if err != nil {
			var apiErr api.Error
			if errors.As(err, &apiErr) && apiErr.Code == api.CodeBudgetExhausted {
				h.Denied++
				break
			}
			return nil, err
		}
		h.Mode = mode
		for i, p := range preds {
			target := make([]float64, classes)
			if len(p.Probs) == classes {
				copy(target, p.Probs)
			} else {
				// Defended answer: all the attacker learns is the argmax.
				h.Soft = false
				if p.Class < 0 || p.Class >= classes {
					return nil, fmt.Errorf("extract: victim class %d outside %d classes", p.Class, classes)
				}
				target[p.Class] = 1
			}
			h.Inputs = append(h.Inputs, inputs[i])
			h.Targets = append(h.Targets, target)
		}
	}
	if len(h.Inputs) == 0 {
		return nil, fmt.Errorf("extract: harvest is empty (budget denied before any answer)")
	}
	return h, nil
}

// Distill trains a fresh surrogate on the harvest by soft-label
// distillation: train.Run with Adam, its loss replaced by cross-entropy
// against the victim's distribution (which degrades gracefully to
// hard-label training when the targets are one-hot).
func Distill(h *Harvest, cfg Config) *nn.Model {
	cfg = cfg.withDefaults()
	m := nn.NewResNet(cfg.Surrogate)
	n := len(h.Inputs)
	sample := len(h.Inputs[0])
	classes := cfg.Surrogate.Classes
	x := tensor.New(n, sample)
	xd := x.Data()
	for i, in := range h.Inputs {
		copy(xd[i*sample:(i+1)*sample], in)
	}
	bt := make([][]float64, min(cfg.TrainBatch, n))
	train.Run(m, x, nil, train.Config{
		Epochs: cfg.Epochs, BatchSize: len(bt),
		Optimizer: train.NewAdam(cfg.LR),
		// Distillation shuffling gets its own stream (Seed+1) so it never
		// aliases the query-synthesis stream.
		Seed:    cfg.Seed + 1,
		Threads: cfg.Threads,
		Loss: func(logits *tensor.Tensor, idx []int) (float64, *tensor.Tensor) {
			for i, src := range idx {
				bt[i] = h.Targets[src]
			}
			return distillLoss(logits, bt, classes)
		},
	})
	return m
}

// distillLoss is cross-entropy against distribution targets: loss =
// -Σ t·log softmax(z) averaged over the batch, grad = (softmax(z) − t)/N.
// With one-hot targets this is exactly nn.SoftmaxCrossEntropy.
func distillLoss(logits *tensor.Tensor, targets [][]float64, k int) (float64, *tensor.Tensor) {
	n := logits.Dim(0)
	grad := tensor.New(n, k)
	ld, gd := logits.Data(), grad.Data()
	invN := 1.0 / float64(n)
	loss := 0.0
	for i := 0; i < n; i++ {
		row := ld[i*k : (i+1)*k]
		grow := gd[i*k : (i+1)*k]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxV)
			grow[j] = e
			sum += e
		}
		logSum := math.Log(sum)
		t := targets[i]
		for j := range grow {
			p := grow[j] / sum
			if t[j] > 0 {
				loss -= t[j] * (row[j] - maxV - logSum) * invN
			}
			grow[j] = (p - t[j]) * invN
		}
	}
	return loss, grad
}

// Report quantifies one extraction run — the numbers BENCH_extract.json
// and dacsteal emit.
type Report struct {
	Strategy string `json:"strategy"`
	Budget   int    `json:"budget"`
	// Queries is the spend (samples submitted, answered or not); Harvested
	// is the input→target pairs actually gathered.
	Queries   int `json:"queries"`
	Requests  int `json:"requests"`
	Harvested int `json:"harvested"`
	// Denied counts requests the victim's query budget refused.
	Denied int `json:"denied_requests,omitempty"`
	// SoftLabels reports whether the victim leaked probability mass; Mode
	// echoes the response mode the defense imposed.
	SoftLabels bool   `json:"soft_labels"`
	Mode       string `json:"response_mode,omitempty"`
	// Agreement is the top-1 agreement between surrogate and victim on the
	// held-out evaluation set — the paper-standard fidelity metric.
	Agreement float64 `json:"top1_agreement"`
	// VictimAcc and SurrogateAcc are test-set accuracies; their gap is
	// what the attacker failed to steal.
	VictimAcc    float64 `json:"victim_test_acc"`
	SurrogateAcc float64 `json:"surrogate_test_acc"`
	// QueriesPerPoint is queries spent per agreement point — the attack's
	// price sheet.
	QueriesPerPoint float64 `json:"queries_per_agreement_point"`
}

// Evaluate computes fidelity offline: top-1 agreement between surrogate
// and victim over testX, plus both models' accuracies against testY. The
// victim model here is the defender's own copy — evaluation spends no
// queries.
func Evaluate(surrogate, victim *nn.Model, testX *tensor.Tensor, testY []int) (agreement, victimAcc, surrogateAcc float64) {
	const evalBatch = 64
	vp := victim.Predict(testX, evalBatch)
	sp := surrogate.Predict(testX, evalBatch)
	agree, vOK, sOK := 0, 0, 0
	for i := range vp {
		if vp[i] == sp[i] {
			agree++
		}
		if vp[i] == testY[i] {
			vOK++
		}
		if sp[i] == testY[i] {
			sOK++
		}
	}
	n := float64(len(vp))
	return float64(agree) / n, float64(vOK) / n, float64(sOK) / n
}

// Run is the whole attack: harvest under the budget, distill the
// surrogate, evaluate fidelity against the defender's reference copy of
// the victim. It returns the report and the surrogate.
func Run(v Victim, victimModel *nn.Model, testX *tensor.Tensor, testY []int, cfg Config) (*Report, *nn.Model, error) {
	cfg = cfg.withDefaults()
	h, err := HarvestQueries(v, cfg)
	if err != nil {
		return nil, nil, err
	}
	surrogate := Distill(h, cfg)
	agreement, vAcc, sAcc := Evaluate(surrogate, victimModel, testX, testY)
	rep := &Report{
		Strategy:   cfg.Strategy.Name(),
		Budget:     cfg.Budget,
		Queries:    h.Queries,
		Requests:   h.Requests,
		Harvested:  len(h.Inputs),
		Denied:     h.Denied,
		SoftLabels: h.Soft,
		Mode:       h.Mode,
		Agreement:  agreement, VictimAcc: vAcc, SurrogateAcc: sAcc,
	}
	if agreement > 0 {
		rep.QueriesPerPoint = float64(h.Queries) / (agreement * 100)
	}
	return rep, surrogate, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/api"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/extract"
	"repro/internal/modelio"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/train"
)

// The steal workload: a prior-strategy extraction attack through the
// gateway against a victim trained in set-up. One synthetic distribution
// is split into disjoint victim, pool and evaluation slices, as `make
// extract-bench` does. The attack spends a 1024-sample budget in 64-sample
// queries against a rounding policy set through the gateway's :policy
// fan-out, then runs extract.Distill and extract.Evaluate in-process.
const (
	victimN, poolN, evalN = 512, 1024, 400
	victimEpochs          = 6
	stealBudget           = 1024
	stealBatch            = 64
	stealEpochs           = 10
	stealRound            = 2 // decimals the victim's scores are rounded to
)

type stealSetup struct {
	dir    string
	victim *nn.Model
	pool   [][]float64
	evalX  *tensor.Tensor
	evalY  []int
	stats  artifact.Stats
	fleet  *fleet
}

func setupSteal(e *env, tag string) (*stealSetup, error) {
	s := &stealSetup{dir: filepath.Join(e.work, tag)}
	storeDir := filepath.Join(s.dir, "store")
	store, err := artifact.Open(storeDir)
	if err != nil {
		return nil, err
	}
	preset := core.CIFARRelease()
	full := dataset.SyntheticCIFAR(preset.DataConfig(victimN+poolN+evalN, e.seed))
	fx, fy := full.Tensors()
	vx, vy := sliceRows(fx, fy, 0, victimN)
	px, _ := sliceRows(fx, fy, victimN, victimN+poolN)
	s.evalX, s.evalY = sliceRows(fx, fy, victimN+poolN, victimN+poolN+evalN)
	s.pool = rowsOf(px)

	s.victim = nn.NewResNet(preset.ArchConfig(31))
	train.Run(s.victim, vx, vy, train.Config{
		Epochs: victimEpochs, BatchSize: 32, Optimizer: train.NewSGD(0.05, 0.9, 0),
		Schedule: train.StepDecay(0.05, 8, 0.3), ClipNorm: 5, Seed: e.seed + 32,
	})
	s.victim.SetThreads(0)
	rm, err := modelio.Export(s.victim, preset.ArchConfig(31), nil)
	if err != nil {
		return nil, err
	}
	file := filepath.Join(s.dir, "victim.bin")
	if err := modelio.Save(file, rm); err != nil {
		return nil, err
	}
	digest, err := serve.PublishReleaseFile(store, file)
	if err != nil {
		return nil, err
	}
	s.stats = store.Stats()
	if s.fleet, err = e.startFleet(tag, storeDir, 2, []pull{{"victim", digest}}, false); err != nil {
		return nil, err
	}
	return s, setPolicy(s.fleet.gwURL, 2)
}

// setPolicy sets the rounding policy through the gateway and requires
// every replica to accept it.
func setPolicy(gwURL string, replicas int) error {
	body, _ := json.Marshal(serve.Policy{Round: stealRound})
	status, raw, err := postJSON(&http.Client{Timeout: 10 * time.Second}, gwURL+"/v1/models/victim:policy", body)
	if err != nil {
		return err
	}
	var fan struct {
		Replicas int `json:"replicas"`
		Results  []struct {
			Status int `json:"status"`
		} `json:"results"`
	}
	if status != http.StatusOK || json.Unmarshal(raw, &fan) != nil || fan.Replicas != replicas {
		return fmt.Errorf("policy fan-out answered %d: %s", status, bytes.TrimSpace(raw))
	}
	for _, r := range fan.Results {
		if r.Status != http.StatusOK {
			return fmt.Errorf("policy fan-out: a replica answered %d", r.Status)
		}
	}
	return nil
}

// timedVictim times each predict the attacker sends.
type timedVictim struct {
	v   extract.Victim
	lat []float64
}

func (t *timedVictim) Predict(in [][]float64) ([]api.Prediction, string, error) {
	start := time.Now()
	p, mode, err := t.v.Predict(in)
	t.lat = append(t.lat, ms(time.Since(start)))
	return p, mode, err
}

// theft is one extraction run's outcome and timings.
type theft struct {
	report                     []byte
	harvest, distill, evaluate time.Duration
	requests                   []float64
	agreement, vAcc, sAcc      float64
}

func runAttack(s *stealSetup, seed int64, client string) (*theft, error) {
	cfg := extract.Config{
		Budget: stealBudget, BatchSize: stealBatch, Strategy: extract.NewPrior(s.pool),
		Seed: seed, Surrogate: core.CIFARRelease().ArchConfig(99), Epochs: stealEpochs,
		LR: 0.003, TrainBatch: 32,
	}
	tv := &timedVictim{v: extract.NewClient(s.fleet.gwURL, "victim", client)}
	a := &theft{}
	t0 := time.Now()
	h, err := extract.HarvestQueries(tv, cfg)
	a.requests = tv.lat
	if err != nil {
		return a, err
	}
	if h.Queries != stealBudget || len(h.Inputs) != stealBudget || h.Denied != 0 || h.Requests != stealBudget/stealBatch {
		return a, fmt.Errorf("harvest spent %d queries in %d requests for %d pairs (%d denied), want exactly the %d budget",
			h.Queries, h.Requests, len(h.Inputs), h.Denied, stealBudget)
	}
	t1 := time.Now()
	surrogate := extract.Distill(h, cfg)
	t2 := time.Now()
	a.agreement, a.vAcc, a.sAcc = extract.Evaluate(surrogate, s.victim, s.evalX, s.evalY)
	t3 := time.Now()
	a.harvest, a.distill, a.evaluate = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	a.report, err = json.Marshal(extract.Report{
		Strategy: cfg.Strategy.Name(), Budget: stealBudget, Queries: h.Queries,
		Requests: h.Requests, Harvested: len(h.Inputs), Denied: h.Denied,
		SoftLabels: h.Soft, Mode: h.Mode,
		Agreement: a.agreement, VictimAcc: a.vAcc, SurrogateAcc: a.sAcc,
	})
	return a, err
}

func (a *theft) wall() time.Duration { return a.harvest + a.distill + a.evaluate }

func runSteal(e *env) (*result, error) {
	res := newResult()
	var su setups
	var s *stealSetup
	var err error
	for i := 0; i < setupReps && (i == 0 || !e.traced); i++ {
		if s != nil {
			s.fleet.stop()
			os.RemoveAll(s.dir)
		}
		sp := e.begin()
		if s, err = setupSteal(e, fmt.Sprintf("steal%d", i)); err != nil {
			return nil, err
		}
		su.add(sp)
	}
	su.record(res.metrics)

	var walls, cpus []float64
	var first *theft
	start := time.Now()
	for rep := 0; ; rep++ {
		traced := e.traced && rep == 1
		if traced {
			obs.Default.Reset()
			obs.Enable(true)
		}
		sp := e.begin()
		a, err := runAttack(s, e.seed, fmt.Sprintf("perfbench-%d", rep))
		cpu, _ := sp.end()
		obs.Enable(false)
		res.attempted++
		switch {
		case err != nil:
			res.fail("attack %d: %v", rep, err)
		case first == nil:
			first = a
		case !bytes.Equal(a.report, first.report):
			res.fail("attack %d: report differs from attack 0 at the same seed:\n%s\n%s", rep, a.report, first.report)
		}
		if err == nil && !traced {
			walls = append(walls, a.wall().Seconds())
			cpus = append(cpus, cpu)
		}
		if traced && err == nil {
			stealLayerMetrics(a, first, res.metrics)
		}
		if rep >= 1 && (e.traced || time.Since(start).Seconds() >= e.seconds) {
			break
		}
	}
	res.metrics["peak_rss_mb"] = max(s.fleet.peakRSSMB(), peakRSSMB(os.Getpid()))
	s.fleet.stop()
	res.metrics["cpu_s"] = median(cpus)
	res.metrics["run.wall_s"] = median(walls)
	if e.traced {
		artifactMetrics(s.stats, res.metrics)
		if err := apiLayerMetrics(e.seed, s.victim.InputLen(), s.victim.Classes, res.metrics); err != nil {
			return nil, err
		}
		if err := trainLayerMetrics(e.seed, res.metrics); err != nil {
			return nil, err
		}
		if err := evalLayerMetrics(e.seed, s.victim, nil, res.metrics); err != nil {
			return nil, err
		}
	}
	os.RemoveAll(s.dir)
	return res, nil
}

// stealLayerMetrics records the traced attack's phase split, request
// latencies, compute counters and fidelity.
func stealLayerMetrics(a, untraced *theft, metrics map[string]float64) {
	metrics["extract.harvest_s"] = a.harvest.Seconds()
	metrics["extract.distill_s"] = a.distill.Seconds()
	metrics["extract.evaluate_s"] = a.evaluate.Seconds()
	metrics["extract.request_ms.p50"] = quantile(a.requests, 0.5)
	metrics["extract.request_ms.p99"] = quantile(a.requests, 0.99)
	metrics["obs.overhead_pct"] = 100 * (a.wall().Seconds() - untraced.wall().Seconds()) / untraced.wall().Seconds()
	metrics["quality.agreement"] = a.agreement
	metrics["quality.victim_acc"] = 100 * a.vAcc
	metrics["quality.surrogate_acc"] = 100 * a.sAcc
	computeMetrics(obs.Default.Snapshot().Counters, metrics)
}

// sliceRows copies rows [lo, hi) of x and their labels into a fresh tensor.
func sliceRows(x *tensor.Tensor, y []int, lo, hi int) (*tensor.Tensor, []int) {
	sample := len(x.Data()) / x.Dim(0)
	out := tensor.New(hi-lo, sample)
	copy(out.Data(), x.Data()[lo*sample:hi*sample])
	return out, append([]int(nil), y[lo:hi]...)
}

// rowsOf views a sample tensor as one flattened row per sample.
func rowsOf(x *tensor.Tensor) [][]float64 {
	n := x.Dim(0)
	d := x.Data()
	sample := len(d) / n
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = d[i*sample : (i+1)*sample]
	}
	return rows
}

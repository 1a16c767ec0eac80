package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/modelio"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The serve workload: open-loop, seeded-Poisson, single-sample predicts
// through dacgateway to two `dacserve -native -threads 1` replicas, first
// at the low rate and then at the high rate, each for half the run. Half
// the traffic goes to a codebook-native quantized release and half to a
// dense full-precision release. End to end it reports the fleet's CPU
// seconds for the whole schedule; latencies, timed from each request's due
// time, are in the traced report (on a shared VM they swing with
// hypervisor steal far beyond any usable bound).
const (
	// Two closed-loop connections reach about 480 req/s through the
	// gateway on a 2-vCPU host; 350 req/s (~75%) built an unbounded backlog
	// there, so the high rate sits near 50%.
	lowRate  = 100.0 // req/s
	highRate = 250.0 // req/s
	// p99LimitMS is the serving latency limit; a failed request misses it.
	p99LimitMS = 50.0
	// serveConns is the load generator's connection cap.
	serveConns = 2
	// The served models are trained small in set-up: serving cost depends
	// on the architecture, not on how well the weights were trained.
	serveTrainN, serveEpochs = 160, 2
	servePool                = 256 // distinct request inputs
	checkSample              = 64  // responses per model re-computed in-process
)

var serveModels = [2]string{"dense", "quant"}

// serveSetup is a trained pair of releases published into a store and a
// fleet serving them.
type serveSetup struct {
	dir, store string
	files      [2]string
	pulls      []pull
	stats      artifact.Stats
	fleet      *fleet
}

func setupServe(e *env, tag string) (*serveSetup, error) {
	s := &serveSetup{dir: filepath.Join(e.work, tag)}
	s.store = filepath.Join(s.dir, "store")
	store, err := artifact.Open(s.store)
	if err != nil {
		return nil, err
	}
	preset := core.CIFARRelease()
	arch := preset.ArchConfig(1)
	cfg := core.Config{
		Data:     dataset.SyntheticCIFAR(preset.DataConfig(serveTrainN, e.seed)),
		ModelCfg: arch, GroupBounds: preset.GroupBounds,
		Lambdas: preset.Lambdas(10), WindowLen: preset.WindowLen,
		Epochs: serveEpochs, BatchSize: 32, LR: 0.05, Momentum: 0.9, ClipNorm: 5,
		Bits: 4, FineTuneEpochs: 1, KeepRegDuringFineTune: true,
		Seed: e.seed, Cache: store,
	}
	// The dense release trains; the quantized one reuses the trained state
	// from the store and only quantizes and fine-tunes.
	for i, q := range []core.QuantMode{core.QuantNone, core.QuantTargetCorrelated} {
		cfg.Quant = q
		res := core.Run(cfg)
		rm, err := modelio.Export(res.Model, arch, res.Applied)
		if err != nil {
			return nil, err
		}
		s.files[i] = filepath.Join(s.dir, serveModels[i]+".bin")
		if err := modelio.Save(s.files[i], rm); err != nil {
			return nil, err
		}
		digest, err := serve.PublishReleaseFile(store, s.files[i])
		if err != nil {
			return nil, err
		}
		s.pulls = append(s.pulls, pull{serveModels[i], digest})
	}
	s.stats = store.Stats()
	if s.fleet, err = e.startFleet(tag, s.store, 2, s.pulls, false); err != nil {
		return nil, err
	}
	return s, nil
}

// request is one scheduled predict and what came back.
type request struct {
	model, input int
	offset       time.Duration // due time relative to the phase start
	due          time.Time
	late         time.Duration // dispatch time minus due time
	latency      time.Duration // answer time minus due time
	ok           bool
	problem      string
	logits       []float64
	timing       string // X-Dac-Server-Timing
}

func (r *request) latencyMS() float64 {
	if !r.ok {
		return math.MaxFloat64 // a failed request misses every limit
	}
	return ms(r.latency)
}

// schedule draws a Poisson arrival sequence at rate for dur, each arrival
// picking a model and an input uniformly.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) []*request {
	var out []*request
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, &request{
			model: rng.Intn(2), input: rng.Intn(servePool),
			offset: time.Duration(t * float64(time.Second)),
		})
	}
}

// loadClient is the load generator's HTTP client: one process, at most
// serveConns connections.
func loadClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns,
			DisableCompression: true,
		},
	}
}

// runOpenLoop sends reqs on their schedule regardless of answers; each
// request's latency is timed from its due time.
func runOpenLoop(c *http.Client, url string, reqs []*request, bodies [2][][]byte) {
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for _, r := range reqs {
		r.due = start.Add(r.offset)
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		r.late = time.Since(r.due)
		wg.Add(1)
		go func(r *request) {
			defer wg.Done()
			predictOnce(c, url, r, bodies[r.model][r.input])
			r.latency = time.Since(r.due)
		}(r)
	}
	wg.Wait()
}

// predictOnce posts one predict and validates the envelope.
func predictOnce(c *http.Client, url string, r *request, body []byte) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		r.problem = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderClient, "perfbench")
	resp, err := c.Do(req)
	if err != nil {
		r.problem = err.Error()
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		r.problem = err.Error()
		return
	}
	if resp.StatusCode != http.StatusOK {
		r.problem = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return
	}
	var pr api.PredictResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		r.problem = err.Error()
		return
	}
	if pr.API != api.Version || pr.Model != serveModels[r.model] || len(pr.Predictions) != 1 {
		r.problem = fmt.Sprintf("bad envelope: api %q model %q, %d predictions", pr.API, pr.Model, len(pr.Predictions))
		return
	}
	r.logits = pr.Predictions[0].Logits
	r.timing = resp.Header.Get(obs.HeaderServerTiming)
	r.ok = true
}

// serveInputs builds the request bodies: servePool inputs drawn from the
// preset's distribution, one body per model.
func serveInputs(seed int64) ([][]float64, [2][][]byte, error) {
	x, _ := dataset.SyntheticCIFAR(core.CIFARRelease().DataConfig(servePool, seed+1)).Tensors()
	rows := rowsOf(x)
	var bodies [2][][]byte
	for m, name := range serveModels {
		for _, row := range rows {
			b, err := json.Marshal(api.PredictRequest{API: api.Version, Model: name, Input: row})
			if err != nil {
				return nil, bodies, err
			}
			bodies[m] = append(bodies[m], b)
		}
	}
	return rows, bodies, nil
}

// pass is one low-rate then high-rate run of the schedule.
type pass struct {
	low, high []*request
	makespan  time.Duration
}

func runPass(c *http.Client, url string, seed int64, seconds float64, bodies [2][][]byte) *pass {
	rng := rand.New(rand.NewSource(seed))
	half := time.Duration(seconds / 2 * float64(time.Second))
	p := &pass{low: schedule(rng, lowRate, half), high: schedule(rng, highRate, half)}
	start := time.Now()
	runOpenLoop(c, url, p.low, bodies)
	runOpenLoop(c, url, p.high, bodies)
	p.makespan = time.Since(start)
	return p
}

func latencies(reqs []*request) []float64 {
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		out[i] = r.latencyMS()
	}
	return out
}

func runServe(e *env) (*result, error) {
	res := newResult()
	rows, bodies, err := serveInputs(e.seed)
	if err != nil {
		return nil, err
	}
	client := loadClient()
	var su setups
	var s *serveSetup
	for i := 0; i < setupReps && (i == 0 || !e.traced); i++ {
		if s != nil {
			s.fleet.stop()
			os.RemoveAll(s.dir)
		}
		sp := e.begin()
		if s, err = setupServe(e, fmt.Sprintf("serve%d", i)); err != nil {
			return nil, err
		}
		su.add(sp)
	}
	su.record(res.metrics)

	cpu0 := s.fleet.cpuSeconds()
	p := runPass(client, s.fleet.gwURL, e.seed, e.seconds, bodies)
	res.metrics["cpu_s"] = s.fleet.cpuSeconds() - cpu0
	res.metrics["run.wall_s"] = p.makespan.Seconds()
	res.metrics["peak_rss_mb"] = s.fleet.peakRSSMB()
	if e.traced {
		untracedP50 := quantile(latencies(p.high), 0.5)
		s.fleet.stop()
		if s.fleet, err = e.startFleet("serve-traced", s.store, 2, s.pulls, true); err != nil {
			return nil, err
		}
		p = runPass(client, s.fleet.gwURL, e.seed, e.seconds, bodies)
		res.metrics["obs.overhead_pct"] = 100 * (quantile(latencies(p.high), 0.5) - untracedP50) / untracedP50
		if err := serveLayerMetrics(e, s, p, rows, bodies, res.metrics); err != nil {
			return nil, err
		}
	}
	s.fleet.stop()

	all := append(append([]*request(nil), p.low...), p.high...)
	res.attempted = len(all)
	for _, r := range all {
		if !r.ok {
			res.fail("predict %s: %s", serveModels[r.model], r.problem)
		}
	}
	if err := checkServed(e.seed, s.files, rows, all, res); err != nil {
		return nil, err
	}
	os.RemoveAll(s.dir)
	return res, nil
}

// checkServed recomputes a seeded sample of answered requests per model
// in-process with EvalBatch on the same release file (codebook-native for
// the quantized one) and requires bit-identical logits.
func checkServed(seed int64, files [2]string, rows [][]float64, reqs []*request, res *result) error {
	rng := rand.New(rand.NewSource(seed + 7))
	for m := range serveModels {
		model, err := loadServedModel(files[m], m == 1)
		if err != nil {
			return err
		}
		var sample []*request
		for _, i := range rng.Perm(len(reqs)) {
			if r := reqs[i]; r.ok && r.model == m && len(sample) < checkSample {
				sample = append(sample, r)
			}
		}
		in := make([][]float64, len(sample))
		for i, r := range sample {
			in[i] = rows[r.input]
		}
		want, err := model.EvalBatch(in)
		if err != nil {
			return err
		}
		for i, r := range sample {
			if !bitEqual(r.logits, want[i]) {
				res.fail("%s input %d: served logits differ from in-process EvalBatch", serveModels[m], r.input)
			}
		}
	}
	return nil
}

func loadServedModel(path string, native bool) (*nn.Model, error) {
	rm, err := modelio.Load(path)
	if err != nil {
		return nil, err
	}
	var m *nn.Model
	if native {
		m, _, err = modelio.ImportNative(rm)
	} else {
		m, _, err = modelio.Import(rm)
	}
	if err != nil {
		return nil, err
	}
	m.SetThreads(1)
	return m, nil
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// serveLayerMetrics fills the serving per-layer metrics from the traced
// pass, the servers' own stats, direct-versus-gateway probes and an
// in-process engine.
func serveLayerMetrics(e *env, s *serveSetup, p *pass, rows [][]float64, bodies [2][][]byte, metrics map[string]float64) error {
	for name, reqs := range map[string][]*request{"low": p.low, "high": p.high} {
		lat := latencies(reqs)
		metrics["loadgen.p50_ms."+name] = quantile(lat, 0.5)
		metrics["loadgen.p99_ms."+name] = quantile(lat, 0.99)
		missed := 0
		for _, l := range lat {
			if l > p99LimitMS {
				missed++
			}
		}
		metrics["loadgen.over_limit_pct."+name] = 100 * float64(missed) / float64(len(lat))
	}
	var late, queue, compute, batch []float64
	for _, r := range append(append([]*request(nil), p.low...), p.high...) {
		late = append(late, ms(r.late))
		for _, t := range obs.ParseTimings(r.timing) {
			switch t.Name {
			case "queue":
				queue = append(queue, float64(t.Value)/1000)
			case "compute":
				compute = append(compute, float64(t.Value)/1000)
			case "batch":
				batch = append(batch, float64(t.Value))
			}
		}
	}
	metrics["loadgen.late_ms.p99"] = quantile(late, 0.99)
	metrics["serve.queue_ms.p50"] = median(queue)
	metrics["serve.compute_ms.p50"] = median(compute)
	metrics["serve.batch_mean"] = mean(batch)

	probe := &http.Client{Timeout: 10 * time.Second}
	var gw struct {
		Retries int64 `json:"retries"`
		Sheds   int64 `json:"sheds"`
	}
	if err := getJSON(probe, s.fleet.gwURL+"/statsz", &gw); err != nil {
		return err
	}
	metrics["gateway.retries"] = float64(gw.Retries)
	metrics["gateway.sheds"] = float64(gw.Sheds)
	rejected := 0.0
	counters := map[string]int64{}
	for _, u := range s.fleet.repURLs {
		var st struct {
			Models map[string]struct {
				Rejected int64 `json:"rejected"`
			} `json:"models"`
		}
		if err := getJSON(probe, u+"/statsz", &st); err != nil {
			return err
		}
		for _, m := range st.Models {
			rejected += float64(m.Rejected)
		}
		resp, err := probe.Get(u + "/metricsz")
		if err != nil {
			return err
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		for _, name := range []string{"compute_dispatches_total", "compute_queue_wait_ns_total", "compute_tail_wait_ns_total"} {
			counters[name] += int64(promValue(string(text), name))
		}
		counters["compute_worker_busy_ns_total"] += int64(promValue(string(text), "compute_worker_busy_ns_total"))
	}
	metrics["serve.rejected"] = rejected
	computeMetrics(counters, metrics)

	// Closed-loop probes, one request at a time: straight to a replica,
	// then through the gateway, then into an in-process engine.
	const probes = 200
	closedLoop := func(url string) ([]float64, error) {
		var out []float64
		for i := 0; i < probes; i++ {
			r := &request{model: i % 2, input: i % servePool}
			start := time.Now()
			predictOnce(probe, url, r, bodies[r.model][r.input])
			if !r.ok {
				return nil, fmt.Errorf("probe %s: %s", url, r.problem)
			}
			out = append(out, ms(time.Since(start)))
		}
		return out, nil
	}
	direct, err := closedLoop(s.fleet.repURLs[0])
	if err != nil {
		return err
	}
	viaGateway, err := closedLoop(s.fleet.gwURL)
	if err != nil {
		return err
	}
	reg := serve.NewRegistry(serve.Options{
		MaxBatch: 16, QueueDepth: 256, FlushEvery: 2 * time.Millisecond,
		Threads: 1, NativeQuant: true, Obs: obs.NewRegistry(),
	})
	defer reg.Close()
	var entries [2]*serve.Entry
	for m, name := range serveModels {
		if entries[m], err = reg.LoadFile(name, s.files[m]); err != nil {
			return err
		}
	}
	var entry []float64
	for i := 0; i < probes; i++ {
		start := time.Now()
		if _, _, err := entries[i%2].PredictTimed(rows[i%servePool]); err != nil {
			return err
		}
		entry = append(entry, ms(time.Since(start)))
	}
	metrics["serve.entry_ms.p50"] = median(entry)
	metrics["serve.http_ms.p50"] = median(direct) - median(entry)
	metrics["gateway.overhead_ms.p50"] = median(viaGateway) - median(direct)
	artifactMetrics(s.stats, metrics)

	dense, err := loadServedModel(s.files[0], false)
	if err != nil {
		return err
	}
	native, err := loadServedModel(s.files[1], true)
	if err != nil {
		return err
	}
	return evalLayerMetrics(e.seed, dense, native, metrics)
}

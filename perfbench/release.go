package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/img"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// The release workload: one cold data-holder release on the CIFAR-release
// preset at dacrelease's defaults (n=800, 15 epochs, λ=10, 4-bit
// target-correlated quantization, fine-tune, extract), default thread
// count, fresh empty artifact store per release.
const releaseN = 800

// releaseOut is what one release printed and left behind.
type releaseOut struct {
	file, store string
	acc         string // test accuracy as printed, "%.2f" percent
	extracted   string // attack.Score as printed
	wall        time.Duration
	cpu         float64 // user+system seconds of the releasing process
	rssMB       float64
}

var (
	releasedRE  = regexp.MustCompile(`(?m)^released .*: test accuracy ([0-9.]+)%, \d+ images embedded$`)
	extractedRE = regexp.MustCompile(`(?m)^extracted: (.*)$`)
)

func runRelease(e *env) (*result, error) {
	res := newResult()
	preset := core.CIFARRelease()

	// Set-up: a smoke release (64 samples, one epoch) warms the binary and
	// the file cache, then the benchmark regenerates the dataset dacrelease
	// will build, so it can re-score the released file independently.
	var tx *tensor.Tensor
	var ty []int
	var su setups
	for i := 0; i < setupReps; i++ {
		sp := e.begin()
		dir := filepath.Join(e.work, "smoke")
		p, err := e.start("dacrelease-smoke", "dacrelease", "-model", filepath.Join(dir, "smoke.bin"),
			"-cache-dir", filepath.Join(dir, "store"), "-n", "64", "-epochs", "1", "-seed", fmt.Sprint(e.seed))
		if err != nil {
			return nil, err
		}
		if <-p.done; p.err != nil {
			return nil, fmt.Errorf("smoke release: %v", p.err)
		}
		os.RemoveAll(dir)
		data := dataset.SyntheticCIFAR(preset.DataConfig(releaseN, e.seed))
		_, test := data.Split(0.2)
		tx, ty = test.Tensors()
		su.add(sp)
	}
	su.record(res.metrics)

	var walls, cpus []float64
	var first []byte
	var untraced, traced time.Duration
	peak := 0.0
	start := time.Now()
	for rep := 0; ; rep++ {
		dir := filepath.Join(e.work, fmt.Sprintf("release%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var out releaseOut
		var err error
		if e.traced && rep == 1 {
			out, err = releaseInProcess(e, dir, res.metrics)
			traced = out.wall
		} else {
			out, err = releaseBinary(e, dir)
			untraced = out.wall
			walls = append(walls, out.wall.Seconds())
			cpus = append(cpus, out.cpu)
			peak = max(peak, out.rssMB)
		}
		if err != nil {
			return nil, err
		}
		res.attempted++
		acc, recog, err := rescoreRelease(out, tx, ty)
		if err != nil {
			res.fail("release %d: %v", rep, err)
		}
		raw, err := os.ReadFile(out.file)
		switch {
		case err != nil:
			res.fail("release %d: %v", rep, err)
		case first == nil:
			first = raw
			res.metrics["quality.test_acc"] = 100 * acc
			res.metrics["quality.recog_pct"] = recog
		case !bytes.Equal(raw, first):
			res.fail("release %d: released bytes differ from release 0 at the same seed", rep)
		}
		os.RemoveAll(dir)
		if rep >= 1 && (e.traced || time.Since(start).Seconds() >= e.seconds) {
			break
		}
	}
	res.metrics["cpu_s"] = median(cpus)
	res.metrics["run.wall_s"] = median(walls)
	res.metrics["peak_rss_mb"] = peak
	if e.traced {
		res.metrics["obs.overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
		if err := trainLayerMetrics(e.seed, res.metrics); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// releaseBinary runs dacrelease at its defaults against a fresh store.
func releaseBinary(e *env, dir string) (releaseOut, error) {
	out := releaseOut{file: filepath.Join(dir, "release.bin"), store: filepath.Join(dir, "store")}
	p, err := e.start("dacrelease", "dacrelease",
		"-model", out.file, "-cache-dir", out.store, "-seed", fmt.Sprint(e.seed))
	if err != nil {
		return out, err
	}
	<-p.done
	out.wall = time.Since(p.startedAt)
	if p.err != nil {
		return out, fmt.Errorf("dacrelease: %v", p.err)
	}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.rssMB = float64(ru.Maxrss) / 1024
	}
	out.cpu = p.cpuSeconds()
	logText, err := os.ReadFile(filepath.Join(e.work, "dacrelease.log"))
	if err != nil {
		return out, err
	}
	m1 := releasedRE.FindSubmatch(logText)
	m2 := extractedRE.FindSubmatch(logText)
	if m1 == nil || m2 == nil {
		return out, fmt.Errorf("dacrelease printed no accuracy or extraction line")
	}
	out.acc, out.extracted = string(m1[1]), string(m2[1])
	return out, nil
}

// releaseInProcess is the traced release: the same pipeline dacrelease
// runs, called through core.Run with its span tracer, the obs compute
// counters and an in-process artifact store, so the per-layer numbers can
// be read off. Its released bytes must equal the binary's.
func releaseInProcess(e *env, dir string, metrics map[string]float64) (releaseOut, error) {
	out := releaseOut{file: filepath.Join(dir, "release.bin"), store: filepath.Join(dir, "store")}
	start := time.Now()
	store, err := artifact.Open(out.store)
	if err != nil {
		return out, err
	}
	obs.Default.Reset()
	obs.Enable(true)
	defer obs.Enable(false)
	tracer := obs.NewTracer()
	preset := core.CIFARRelease()
	data := dataset.SyntheticCIFAR(preset.DataConfig(releaseN, e.seed))
	arch := preset.ArchConfig(1)
	runStart := time.Now()
	res := core.Run(core.Config{
		Data: data, ModelCfg: arch,
		GroupBounds: preset.GroupBounds,
		Lambdas:     preset.Lambdas(10),
		WindowLen:   preset.WindowLen,
		Epochs:      15, BatchSize: 32, LR: 0.05, Momentum: 0.9, ClipNorm: 5,
		Quant: core.QuantTargetCorrelated, Bits: 4,
		FineTuneEpochs: 3, KeepRegDuringFineTune: true,
		Seed: e.seed, Trace: tracer, Cache: store,
	})
	runWall := time.Since(runStart)
	rm, err := modelio.Export(res.Model, arch, res.Applied)
	if err != nil {
		return out, err
	}
	if err := modelio.Save(out.file, rm); err != nil {
		return out, err
	}
	out.wall = time.Since(start)
	out.acc = fmt.Sprintf("%.2f", 100*res.TestAcc)
	out.extracted = res.Score.String()

	spans := parseSpans(tracer.Report())
	covered := 0.0
	for _, stage := range []string{"split", "preprocess", "train", "quantize", "finetune", "extract"} {
		s := spans["core/"+stage].total.Seconds()
		metrics["core."+stage+"_s"] = s
		covered += s
	}
	metrics["core.unattributed_s"] = runWall.Seconds() - covered
	for _, phase := range []string{"forward", "backward", "regularizer", "optimizer"} {
		metrics["train."+phase+"_s"] = spans["train/epoch/"+phase].total.Seconds()
	}
	metrics["train.steps"] = float64(spans["train/epoch/forward"].calls)
	computeMetrics(obs.Default.Snapshot().Counters, metrics)
	artifactMetrics(store.Stats(), metrics)
	return out, nil
}

// rescoreRelease reloads the released file through modelio and checks it
// re-scores to the printed test accuracy and extraction result. It returns
// the re-scored accuracy and recognized-image percentage.
func rescoreRelease(out releaseOut, tx *tensor.Tensor, ty []int) (float64, float64, error) {
	rm, err := modelio.Load(out.file)
	if err != nil {
		return 0, 0, err
	}
	m, _, err := modelio.Import(rm)
	if err != nil {
		return 0, 0, err
	}
	m.SetThreads(0)
	acc := m.Accuracy(tx, ty, 64)
	if got := fmt.Sprintf("%.2f", 100*acc); got != out.acc {
		return 0, 0, fmt.Errorf("reloaded file scores %s%%, release printed %s%%", got, out.acc)
	}

	// The extraction re-score needs the encoding plan, which the release's
	// artifact store holds; decoding moments are core's defaults (mean 128,
	// std at the std-window midpoint).
	store, err := artifact.Open(out.store)
	if err != nil {
		return 0, 0, err
	}
	keys, err := store.Keys("plan")
	if err != nil || len(keys) != 1 {
		return 0, 0, fmt.Errorf("release store holds %d plans (%v), want 1", len(keys), err)
	}
	rc, err := store.Get("plan", keys[0])
	if err != nil {
		return 0, 0, err
	}
	plan, err := attack.ReadPlan(rc)
	rc.Close()
	if err != nil {
		return 0, 0, err
	}
	groups := m.GroupsByConvIndex(core.CIFARRelease().GroupBounds)
	opt := attack.DecodeOptions{TargetMean: 128, TargetStd: (plan.Window.Lo + plan.Window.Hi) / 2}
	var recon []*img.Image
	for _, pg := range plan.Groups {
		if len(pg.Images) == 0 {
			continue
		}
		_, r := attack.BestPolarityDecode(pg, groups[pg.GroupIndex], plan.ImageGeom, opt)
		recon = append(recon, r...)
	}
	score := attack.ScoreReconstructions(plan.AllImages(), recon)
	if got := score.String(); got != out.extracted {
		return 0, 0, fmt.Errorf("reloaded file extracts %q, release printed %q", got, out.extracted)
	}
	return acc, score.RecognizablePercent(), nil
}

// spanRow is one tracer report row.
type spanRow struct {
	calls int64
	total time.Duration
}

// parseSpans reads obs.Tracer's text report into slash-joined span paths.
func parseSpans(report string) map[string]spanRow {
	out := map[string]spanRow{}
	var stack []string
	for _, line := range strings.Split(report, "\n")[1:] {
		f := strings.Fields(line)
		if len(f) != 4 {
			continue
		}
		depth := (len(line) - len(strings.TrimLeft(line, " "))) / 2
		if depth > len(stack) {
			continue
		}
		stack = append(stack[:depth], f[0])
		var s spanRow
		fmt.Sscan(f[1], &s.calls)
		s.total, _ = time.ParseDuration(f[2])
		out[strings.Join(stack, "/")] = s
	}
	return out
}

// artifactMetrics records an artifact store's traffic.
func artifactMetrics(st artifact.Stats, metrics map[string]float64) {
	metrics["artifact.write_bytes"] = float64(st.WriteBytes)
	metrics["artifact.read_bytes"] = float64(st.ReadBytes)
	metrics["artifact.hits"] = float64(st.Hits)
	metrics["artifact.misses"] = float64(st.Misses)
}

// computeMetrics maps the compute pool's obs counters onto metric names.
func computeMetrics(c map[string]int64, metrics map[string]float64) {
	busy := int64(0)
	for name, v := range c {
		if strings.HasPrefix(name, "compute_worker_busy_ns_total") {
			busy += v
		}
	}
	metrics["compute.busy_s"] = float64(busy) / 1e9
	metrics["compute.queue_wait_s"] = float64(c["compute_queue_wait_ns_total"]) / 1e9
	metrics["compute.tail_wait_s"] = float64(c["compute_tail_wait_ns_total"]) / 1e9
	metrics["compute.dispatches"] = float64(c["compute_dispatches_total"])
}

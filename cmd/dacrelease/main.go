// Command dacrelease plays the data holder's side of the threat model: it
// trains a classifier on (synthetic) private data using the third-party
// pipeline — which happens to be malicious — quantizes it, and writes the
// released model file an adversary would later obtain.
//
//	dacrelease -model released.bin [-truth dir] [-lambda 10] [-bits 4]
//
// With -truth, the ground-truth encoding targets are also saved as PGM
// files so the extraction can be scored afterwards (evaluation aid only;
// the adversary never sees them). With -quantized-out, the bare
// quantization record (codebooks plus per-weight indices, DACQAP1) is also
// written next to the release — the standalone artifact quantization
// tooling consumes; it is not servable on its own (dacserve skips it) since
// it carries no architecture or batch-norm state. With -store, the release
// is additionally published into an artifact store under its content
// digest, where a dacserve/dacgateway fleet pulls it from — every replica
// that loads the digest provably serves byte-identical weights.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/quantize"
	"repro/internal/serve"
)

func main() {
	modelPath := flag.String("model", "released.bin", "output model file")
	storeDir := flag.String("store", "", "artifact store to also publish the release into, keyed by content digest (dacserve replicas pull it with -pull / :load)")
	quantOut := flag.String("quantized-out", "", "optional path for the bare quantization record (DACQAP1: codebooks + indices, no architecture)")
	truthDir := flag.String("truth", "", "optional directory for ground-truth target PGMs")
	lambda := flag.Float64("lambda", 10, "correlation rate for the encoding group")
	bits := flag.Int("bits", 4, "quantization bit width")
	epochs := flag.Int("epochs", 15, "training epochs")
	n := flag.Int("n", 800, "dataset size")
	seed := flag.Int64("seed", 7, "seed")
	threads := flag.Int("threads", 0, "worker threads per model pass (0 = all cores; results identical for any value)")
	traceOut := flag.String("trace-out", "", "write a phase-span timing report to this file at exit (\"-\" for stderr)")
	cacheDir := flag.String("cache-dir", "", "persistent artifact store; stages with cached results are skipped across invocations")
	resume := flag.Bool("resume", false, "with -cache-dir: continue an interrupted training run from its latest epoch checkpoint")
	flag.Parse()

	var tracer *obs.Tracer
	if *traceOut != "" {
		obs.Enable(true)
		tracer = obs.NewTracer()
		defer writeTrace(*traceOut, tracer)
	}

	var store *artifact.Store
	if *cacheDir != "" {
		var err error
		if store, err = artifact.Open(*cacheDir); err != nil {
			fatal(err)
		}
	} else if *resume {
		fmt.Fprintln(os.Stderr, "dacrelease: -resume requires -cache-dir")
		os.Exit(2)
	}

	preset := core.CIFARRelease()
	data := dataset.SyntheticCIFAR(preset.DataConfig(*n, *seed))
	arch := preset.ArchConfig(1)
	res := core.Run(core.Config{
		Data: data, ModelCfg: arch,
		GroupBounds: preset.GroupBounds,
		Lambdas:     preset.Lambdas(*lambda),
		WindowLen:   preset.WindowLen,
		Epochs:      *epochs, BatchSize: 32, LR: 0.05, Momentum: 0.9, ClipNorm: 5,
		Quant: core.QuantTargetCorrelated, Bits: *bits,
		FineTuneEpochs: 3, KeepRegDuringFineTune: true,
		Seed: *seed, Log: os.Stderr,
		Threads: *threads, Trace: tracer,
		Cache: store, Resume: *resume,
	})

	rm, err := modelio.Export(res.Model, arch, res.Applied)
	if err != nil {
		fatal(err)
	}
	if err := modelio.Save(*modelPath, rm); err != nil {
		fatal(err)
	}
	size := modelio.Size(rm)
	fmt.Printf("released %s: test accuracy %.2f%%, %d images embedded\n",
		*modelPath, 100*res.TestAcc, res.Plan.TotalImages())
	fmt.Printf("storage: %d bytes (%.1fx smaller than raw %d bytes)\n",
		size.TotalBytes(), size.Ratio(), size.RawBytes)

	if *storeDir != "" {
		pub, err := artifact.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		digest, err := serve.PublishReleaseFile(pub, *modelPath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("published release to %s (digest %s)\n", *storeDir, digest)
	}

	if *quantOut != "" {
		if res.Applied == nil {
			fatal(fmt.Errorf("-quantized-out: run produced no quantization record"))
		}
		if err := writeQuantRecord(*quantOut, res.Applied); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote quantization record to %s\n", *quantOut)
	}

	if *truthDir != "" {
		if err := os.MkdirAll(*truthDir, 0o755); err != nil {
			fatal(err)
		}
		for i, im := range res.Plan.AllImages() {
			path := filepath.Join(*truthDir, fmt.Sprintf("truth_%03d.pgm", i))
			if err := im.SavePNM(path); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("wrote %d ground-truth targets to %s\n", res.Plan.TotalImages(), *truthDir)
	}
}

// writeQuantRecord encodes the run's quantization state as a standalone
// DACQAP1 file next to the release.
func writeQuantRecord(path string, a *quantize.Applied) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := quantize.EncodeApplied(f, quantize.Snapshot(a)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace renders the span-tree timing report to path ("-" = stderr).
func writeTrace(path string, tr *obs.Tracer) {
	if path == "-" {
		tr.WriteReport(os.Stderr)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dacrelease: trace-out: %v\n", err)
		return
	}
	defer f.Close()
	tr.WriteReport(f)
	fmt.Fprintf(os.Stderr, "wrote phase trace to %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dacrelease:", err)
	os.Exit(1)
}

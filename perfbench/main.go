// Command perfbench is the repository's benchmark. It runs one named
// workload against the built binaries (dacrelease, dacserve, dacgateway)
// and the internal packages' public APIs, checks that the outputs are
// correct, and prints one JSON result line:
//
//	{"correct":true,"attempted":2,"failed":0,"metrics":{"cpu_s":{"value":20.7,"unit":"s"},...}}
//
// With -trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// declares; with -trace 1 they are its per-layer metrics, taken from a
// separate traced run. Workloads: release (one cold data-holder release),
// serve (open-loop predicts through the gateway fleet) and steal (a model
// extraction attack through the gateway). NOTES.md says what each metric
// measures. run.sh builds everything and calls this program; it is not
// meant to be started by hand.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// heldOutSeed is never used while the benchmark or a change is tuned; a
// claimed gain must also hold on it.
const heldOutSeed = 424242

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 3

// env is one benchmark invocation's context.
type env struct {
	root    string // checkout root
	bin     string // directory of the built binaries
	work    string // scratch directory for this run, removed at exit
	seed    int64
	seconds float64
	traced  bool
	procs   *procSet
}

// result is what a workload measured: metric values by name plus the
// operation counts that feed ok_frac and the result line.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// span measures one stretch of work both in CPU seconds of this process and
// every child it started, and in wall seconds.
type span struct {
	procs *procSet
	cpu0  float64
	t0    time.Time
}

func (e *env) begin() span { return span{e.procs, e.procs.cpuSeconds(), time.Now()} }

func (s span) end() (cpu, wall float64) {
	return s.procs.cpuSeconds() - s.cpu0, time.Since(s.t0).Seconds()
}

// setups collects repeated set-ups: setup_s is their median CPU time (wall
// time on a shared VM swings with hypervisor steal; CPU time does not),
// run.setup_wall_s their median wall time.
type setups struct{ cpu, wall []float64 }

func (s *setups) add(sp span) {
	cpu, wall := sp.end()
	s.cpu = append(s.cpu, cpu)
	s.wall = append(s.wall, wall)
}

func (s *setups) record(metrics map[string]float64) {
	metrics["setup_s"] = median(s.cpu)
	metrics["run.setup_wall_s"] = median(s.wall)
}

// fail records a failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env) (*result, error){
	"release": runRelease,
	"serve":   runServe,
	"steal":   runSteal,
}

func main() {
	workload := flag.String("workload", "", "workload to run: release, serve or steal")
	seed := flag.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 20, "how long the measurement runs")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs traced and prints per-layer metrics")
	root := flag.String("root", ".", "repository checkout root")
	bin := flag.String("bin", "", "directory holding the built dacrelease, dacserve and dacgateway")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" {
		fatal(fmt.Errorf("usage: perfbench -bin DIR --workload release|serve|steal --seed N --seconds S --trace 0|1"))
	}
	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "work-"+*workload+"-")
	if err != nil {
		fatal(err)
	}
	e := &env{
		root: *root, bin: *bin, work: work, seed: *seed,
		seconds: float64(*seconds), traced: *trace == 1, procs: &procSet{},
	}
	cleanup := func() {
		e.procs.stopAll()
		os.RemoveAll(work)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(130)
	}()

	printProvenance(e, *workload)
	res, err := run(e)
	cleanup()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res.metrics["ok_frac"] = 1 - float64(res.failed)/float64(res.attempted)
	line, err := resultLine(spec, res, e.traced)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	if res.failed > 0 {
		os.Exit(1)
	}
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads the metric declarations, so the names and units printed
// are exactly the ones BENCHMARK.json promises.
func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultLine renders the final JSON line. Every end-to-end metric must
// have been measured; a per-layer metric of a layer the workload does not
// run reads 0.
func resultLine(spec *benchSpec, res *result, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := res.metrics[m.Name]
		if !ok && !traced {
			return "", fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, v)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	if traced {
		var unknown []string
		for name := range res.metrics {
			if !declared(spec, name) {
				unknown = append(unknown, name)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			return "", fmt.Errorf("measured metrics missing from BENCHMARK.json: %v", unknown)
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	return string(out), err
}

func declared(spec *benchSpec, name string) bool {
	for _, l := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range l {
			if m.Name == name {
				return true
			}
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

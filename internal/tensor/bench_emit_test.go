package tensor

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

// emitBench, when set to a path, makes TestEmitKernelsBench time the naive
// reference kernels against the blocked Go kernels and their AVX2 twins,
// and write GFLOP/s per shape and host details there as JSON. Wired to
// `make kernels-bench`; empty (the default) skips the test so the regular
// suite stays fast and timing-free.
var emitBench = flag.String("emit-bench", "", "write kernel throughput numbers (BENCH_kernels.json) to this path")

type kernelPoint struct {
	Kernel        string  `json:"kernel"`
	M             int     `json:"m"`
	K             int     `json:"k"`
	N             int     `json:"n"`
	NaiveGFLOPS   float64 `json:"naive_gflops"`
	BlockedGFLOPS float64 `json:"blocked_gflops"`
	SIMDGFLOPS    float64 `json:"simd_gflops,omitempty"`
	Speedup       float64 `json:"speedup"`
	SIMDSpeedup   float64 `json:"simd_speedup,omitempty"`
}

// convPoint is one data-movement kernel (im2col or col2im) at one
// convolution geometry: the bounds-testing reference loop against the
// gather plan, in nanoseconds per element of the patch matrix. Stride-1
// im2col rows also time both of the plan's row strategies, whole
// output-row runs and the per-pixel gather, whichever the plan picks
// (runMinWidth).
type convPoint struct {
	Kernel      string  `json:"kernel"`
	InC         int     `json:"in_c"`
	InH         int     `json:"in_h"`
	InW         int     `json:"in_w"`
	K           int     `json:"k"`
	Stride      int     `json:"stride"`
	Pad         int     `json:"pad"`
	Elems       int     `json:"elems"`
	RefNsPerEl  float64 `json:"ref_ns_per_elem"`
	PlanNsPerEl float64 `json:"plan_ns_per_elem"`
	Speedup     float64 `json:"speedup"`
	PlanUses    string  `json:"plan_uses,omitempty"`
	RunsNsPerEl float64 `json:"runs_ns_per_elem,omitempty"`
	GathNsPerEl float64 `json:"gather_ns_per_elem,omitempty"`
}

type benchHost struct {
	Go         string `json:"go"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	AVX2       bool   `json:"avx2"`
}

type kernelReport struct {
	Host    benchHost     `json:"host"`
	Threads int           `json:"threads"`
	Notes   string        `json:"notes"`
	Points  []kernelPoint `json:"points"`
	Conv    []convPoint   `json:"conv"`
}

func hostInfo() benchHost {
	h := benchHost{
		Go:         runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		AVX2:       hasAVX2,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// "-dirty" marks numbers measured on uncommitted changes to that commit.
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// gflops times fn (one full m×k×n product per call) and converts the best
// observed ns/op into GFLOP/s, counting 2 flops per multiply-accumulate.
func gflops(m, k, n int, fn func()) float64 {
	return 2 * float64(m) * float64(k) * float64(n) / bestNs(5, 50*time.Millisecond, fn)[0]
}

// bestNs returns the best observed ns per call of each fn over the given
// number of rounds, each running enough calls of each fn to take about
// round. The functions take turns within every round, so a change in
// machine load between them shows in both, not in their ratio.
func bestNs(rounds int, round time.Duration, fns ...func()) []float64 {
	calls := make([]int, len(fns))
	for f, fn := range fns {
		calls[f] = 1
		for {
			start := time.Now()
			for i := 0; i < calls[f]; i++ {
				fn()
			}
			if el := time.Since(start); el >= round/10 {
				calls[f] = max(1, calls[f]*int(round/el))
				break
			}
			calls[f] *= 2
		}
	}
	best := make([]float64, len(fns))
	for f := range best {
		best[f] = math.MaxFloat64
	}
	for r := 0; r < rounds; r++ {
		for f, fn := range fns {
			start := time.Now()
			for i := 0; i < calls[f]; i++ {
				fn()
			}
			best[f] = min(best[f], float64(time.Since(start).Nanoseconds())/float64(calls[f]))
		}
	}
	return best
}

// withAVX2 runs fn with the assembly kernels switched on or off.
func withAVX2(on bool, fn func()) func() {
	return func() {
		defer func(prev bool) { useAVX2 = prev }(useAVX2)
		useAVX2 = on
		fn()
	}
}

func TestEmitKernelsBench(t *testing.T) {
	if *emitBench == "" {
		t.Skip("pass -emit-bench=<path> (make kernels-bench) to measure kernel throughput")
	}
	rng := rand.New(rand.NewSource(51))
	shapes := [][3]int{
		{6, 54, 144},    // release conv GEMMs: OutC × ColRows × spatial
		{12, 108, 36},   //
		{24, 216, 9},    //
		{32, 288, 64},   // conv-layer shape: OutC × ColRows × spatial
		{64, 576, 64},   // deeper conv block
		{128, 128, 128}, // square
		{16, 512, 256},  // wide dense batch
	}
	rep := kernelReport{
		Host:    hostInfo(),
		Threads: runtime.GOMAXPROCS(0),
		Notes: "single-core kernel throughput of each m×k×n product form " +
			"(matmul a·b, matmulT a·bᵀ, tmatmul aᵀ·b); blocked is the Go " +
			"fallback, simd the AVX2 assembly the public API dispatches to " +
			"when the CPU has it; all stay bit-identical to naive " +
			"(TestBlockedKernelsBitIdentical); conv rows time Im2Col/Col2Im per " +
			"patch-matrix element, the bounds-testing reference loops against the " +
			"gather plan, at the release net's geometries (the plan must not be slower); " +
			"stride-1 im2col rows also time row runs against the pixel gather, the " +
			"choice the plan makes from the output width (12x8x8 is a probe " +
			"between the release net's 6- and 12-wide rows, not a release layer)",
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		bt := make([]float64, n*k)
		dst := make([]float64, m*n)
		fillCases(rng, a, 0)
		fillCases(rng, b, 0)
		fillCases(rng, bt, 0)

		forms := []struct {
			name           string
			naive, blocked func()
		}{
			{"matmul", func() { matmulNaive(dst, a, b, m, k, n) }, func() { matmulBlocked(dst, a, b, m, k, n) }},
			{"matmulT", func() { matmulTNaive(dst, a, bt, m, k, n) }, func() { matmulTBlocked(dst, a, bt, m, k, n) }},
			// a (m×k storage) read as the k×m operand of aᵀ·b.
			{"tmatmul", func() { tmatmulNaive(dst, a, b, k, m, n) }, func() { tmatmulBlocked(dst, a, b, k, m, n) }},
		}
		for _, f := range forms {
			p := kernelPoint{
				Kernel: f.name, M: m, K: k, N: n,
				NaiveGFLOPS:   gflops(m, k, n, f.naive),
				BlockedGFLOPS: gflops(m, k, n, withAVX2(false, f.blocked)),
			}
			p.Speedup = p.BlockedGFLOPS / p.NaiveGFLOPS
			if hasAVX2 {
				p.SIMDGFLOPS = gflops(m, k, n, withAVX2(true, f.blocked))
				p.SIMDSpeedup = p.SIMDGFLOPS / p.BlockedGFLOPS
			}
			t.Logf("%-8s %3dx%3dx%3d: naive %.2f, blocked %.2f, simd %.2f GFLOP/s (simd/blocked %.2fx)",
				p.Kernel, m, k, n, p.NaiveGFLOPS, p.BlockedGFLOPS, p.SIMDGFLOPS, p.SIMDSpeedup)
			rep.Points = append(rep.Points, p)
		}
	}

	rep.Conv = convBench(t, rng)

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*emitBench, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *emitBench)
	for _, p := range rep.Conv {
		if p.PlanNsPerEl > p.RefNsPerEl {
			t.Errorf("%s %dx%dx%d k%d s%d p%d: plan %.2f ns/elem is slower than the reference loop's %.2f",
				p.Kernel, p.InC, p.InH, p.InW, p.K, p.Stride, p.Pad, p.PlanNsPerEl, p.RefNsPerEl)
		}
	}
}

// convBench times Im2Col and Col2Im at the release network's convolution
// geometries: the reference loops of conv_test.go against the gather plan
// with its scratch reused, as a layer runs it.
func convBench(t *testing.T, rng *rand.Rand) []convPoint {
	geoms := []ConvDims{
		NewConvDims(1, 12, 12, 6, 3, 3, 1, 1),  // stem
		NewConvDims(6, 12, 12, 6, 3, 3, 1, 1),  // stage 1
		NewConvDims(12, 8, 8, 12, 3, 3, 1, 1),  // runs-or-gather probe, 8-wide rows
		NewConvDims(12, 6, 6, 12, 3, 3, 1, 1),  // stage 2
		NewConvDims(24, 3, 3, 24, 3, 3, 1, 1),  // stage 3
		NewConvDims(6, 12, 12, 12, 3, 3, 2, 1), // stage 2 downsampling
		NewConvDims(12, 6, 6, 24, 3, 3, 2, 1),  // stage 3 downsampling
		NewConvDims(6, 12, 12, 12, 1, 1, 2, 0), // stage 2 projection
		NewConvDims(12, 6, 6, 24, 1, 1, 2, 0),  // stage 3 projection
	}
	var pts []convPoint
	for _, d := range geoms {
		p := NewConvPlan(d)
		scratch := make([]float64, p.ScratchLen())
		x, dx := make([]float64, d.InElems), make([]float64, d.InElems)
		cols := make([]float64, d.ColRows*d.Cols)
		fillCases(rng, x, 0)
		fillCases(rng, cols, 0)
		elems := float64(len(cols))
		pt := func(kernel string, ref, plan float64) convPoint {
			return convPoint{
				Kernel: kernel, InC: d.InC, InH: d.InH, InW: d.InW, K: d.KH, Stride: d.Stride, Pad: d.Pad,
				Elems:       len(cols),
				RefNsPerEl:  ref / elems,
				PlanNsPerEl: plan / elems,
				Speedup:     ref / plan,
			}
		}
		var im convPoint
		if d.Stride == 1 {
			// The same plan with its other row strategy.
			alt := *p
			alt.rowRuns = !p.rowRuns
			ns := bestNs(10, 20*time.Millisecond,
				func() { im2colRef(d, x, cols) },
				func() { p.Im2Col(x, cols, scratch) },
				func() { alt.Im2Col(x, cols, scratch) })
			im = pt("im2col", ns[0], ns[1])
			im.RunsNsPerEl, im.GathNsPerEl, im.PlanUses = ns[1]/elems, ns[2]/elems, "runs"
			if !p.rowRuns {
				im.RunsNsPerEl, im.GathNsPerEl, im.PlanUses = ns[2]/elems, ns[1]/elems, "gather"
			}
		} else {
			ns := bestNs(10, 20*time.Millisecond,
				func() { im2colRef(d, x, cols) },
				func() { p.Im2Col(x, cols, scratch) })
			im = pt("im2col", ns[0], ns[1])
		}
		ns := bestNs(10, 20*time.Millisecond,
			func() { col2imRef(d, cols, dx) },
			func() { p.Col2Im(cols, dx, scratch) })
		c2 := pt("col2im", ns[0], ns[1])
		for _, q := range []convPoint{im, c2} {
			rows := ""
			if q.PlanUses != "" {
				rows = fmt.Sprintf("; runs %.2f, gather %.2f", q.RunsNsPerEl, q.GathNsPerEl)
			}
			t.Logf("%-6s %2dx%2dx%2d k%d s%d p%d: ref %.2f, plan %.2f ns/elem (%.2fx)%s",
				q.Kernel, d.InC, d.InH, d.InW, d.KH, d.Stride, d.Pad, q.RefNsPerEl, q.PlanNsPerEl, q.Speedup, rows)
			pts = append(pts, q)
		}
	}
	return pts
}

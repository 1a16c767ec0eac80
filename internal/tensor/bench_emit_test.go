package tensor

import (
	"encoding/json"
	"flag"
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
// Each of five rounds runs enough calls to take about 50 ms.
func gflops(m, k, n int, fn func()) float64 {
	calls := 1
	for {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		if time.Since(start) >= 5*time.Millisecond {
			calls = max(1, calls*int(50*time.Millisecond/time.Since(start)))
			break
		}
		calls *= 2
	}
	best := math.MaxFloat64
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		best = min(best, float64(time.Since(start).Nanoseconds())/float64(calls))
	}
	return 2 * float64(m) * float64(k) * float64(n) / best
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
			"(TestBlockedKernelsBitIdentical)",
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

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*emitBench, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *emitBench)
}

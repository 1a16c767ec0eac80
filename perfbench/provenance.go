package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// printProvenance prints one JSON line saying where and how this run was
// measured. The checkout the benchmark runs in need not be a git
// repository, so the commit may be unknown; source_sha256 identifies the
// code either way.
func printProvenance(e *env, workload string) {
	p := map[string]any{
		"workload":      workload,
		"seed":          e.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       e.seconds,
		"traced":        e.traced,
		"commit":        gitCommit(e.root),
		"source_sha256": sourceDigest(e.root),
		"go":            runtime.Version(),
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
	}
	out, err := json.Marshal(map[string]any{"provenance": p})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every file under cmd/, internal/ and
// perfbench/, path and contents, in walk order.
func sourceDigest(root string) string {
	h := sha256.New()
	add := func(path string) error {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(raw))
		h.Write(raw)
		return nil
	}
	if err := add(filepath.Join(root, "go.mod")); err != nil {
		return "unknown"
	}
	for _, dir := range []string{"cmd", "internal", "perfbench"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			return add(path)
		})
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

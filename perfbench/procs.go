package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSet tracks every child process the run starts, so each one is
// stopped and waited for on every exit path.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

type proc struct {
	name      string
	cmd       *exec.Cmd
	startedAt time.Time
	done      chan struct{}
	err       error
}

// start launches a built binary with its output appended to a log file in
// the run's scratch directory.
func (e *env) start(name, binary string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(e.work, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, binary), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the child if this process dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	startedAt := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, startedAt: startedAt, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	e.procs.mu.Lock()
	e.procs.procs = append(e.procs.procs, p)
	e.procs.mu.Unlock()
	return p, nil
}

// stop sends SIGTERM, waits up to five seconds for a graceful exit, then
// kills. It returns once the process has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// cpuSeconds is the process's user+system CPU time so far, or in total
// once it has exited.
func (p *proc) cpuSeconds() float64 {
	if p.exited() {
		return (p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime()).Seconds()
	}
	return cpuSeconds(p.cmd.Process.Pid)
}

// peakRSSMB reads the process's high-water resident set size.
func (p *proc) peakRSSMB() float64 { return peakRSSMB(p.cmd.Process.Pid) }

// cpuSeconds is the CPU time of this process plus every child it started.
func (s *procSet) cpuSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := selfCPUSeconds()
	for _, p := range s.procs {
		total += p.cpuSeconds()
	}
	return total
}

func (s *procSet) stopAll() {
	s.mu.Lock()
	procs := s.procs
	s.procs = nil
	s.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// peakRSSMB returns VmHWM of a live process in MiB (0 if unreadable).
func peakRSSMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// freePort finds an unused loopback port below Linux's default ephemeral
// range (32768-60999), so outgoing connections are unlikely to take it
// before the server binds.
func freePort() (int, error) {
	for i := 0; i < 100; i++ {
		port := 20000 + rand.Intn(12000)
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err == nil {
			l.Close()
			return port, nil
		}
	}
	return 0, fmt.Errorf("no free port in 20000-31999")
}

// getJSON fetches url and decodes a 200 JSON answer into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, v)
}

// waitFor polls cond every 20 ms until it returns true, the process dies
// or the timeout passes.
func waitFor(p *proc, timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if p.exited() {
			return fmt.Errorf("%s exited before %s (%v)", p.name, what, p.err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: timed out waiting for %s", p.name, what)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

// cpuSeconds returns a live process's user+system CPU time from
// /proc/<pid>/stat (0 if unreadable).
func cpuSeconds(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields overall, in clock ticks of 1/100 s.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

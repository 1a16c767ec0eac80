package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// fleet is a running dacgateway in front of dacserve replicas that pulled
// their models from an artifact store by digest.
type fleet struct {
	replicas []*proc
	repURLs  []string
	gateway  *proc
	gwURL    string
}

// pull names one model a replica serves: name=digest in the store.
type pull struct{ name, digest string }

// startFleet launches n replicas (-native -threads 1) and a gateway over
// them, and returns once the gateway sees every replica healthy. With
// obsOn the replicas also run with -obs (compute pool counters).
func (e *env) startFleet(tag, store string, n int, models []pull, obsOn bool) (*fleet, error) {
	f := &fleet{}
	probe := &http.Client{Timeout: 2 * time.Second}
	for i := 0; i < n; i++ {
		args := []string{"-native", "-threads", "1", "-store", store, "-drain-grace", "0s"}
		if obsOn {
			args = append(args, "-obs")
		}
		for _, m := range models {
			args = append(args, "-pull", m.name+"="+m.digest)
		}
		p, url, err := e.startServer(fmt.Sprintf("%s-replica%d", tag, i), "dacserve", args, func(url string) bool {
			return httpOK(probe, url+"/readyz")
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, p)
		f.repURLs = append(f.repURLs, url)
	}
	args := []string{"-probe-interval", "100ms"}
	for i, u := range f.repURLs {
		args = append(args, "-replica", fmt.Sprintf("r%d=%s", i, u))
	}
	for _, m := range models {
		args = append(args, "-assign", m.name+"="+m.digest)
	}
	var err error
	f.gateway, f.gwURL, err = e.startServer(tag+"-gateway", "dacgateway", args, func(url string) bool {
		var st struct {
			Eligible int `json:"eligible"`
		}
		return getJSON(probe, url+"/statsz", &st) == nil && st.Eligible == n
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// startServer starts binary listening on a free loopback port and waits
// until ready(url) holds. A server that exits first (its port was taken
// between the probe and its bind) is retried on another port.
func (e *env) startServer(name, binary string, args []string, ready func(url string) bool) (*proc, string, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, "", err
		}
		url := fmt.Sprintf("http://127.0.0.1:%d", port)
		p, err := e.start(name, binary, append([]string{"-listen", fmt.Sprintf("127.0.0.1:%d", port)}, args...)...)
		if err != nil {
			return nil, "", err
		}
		lastErr = waitFor(p, 30*time.Second, "ready", func() bool { return ready(url) })
		if lastErr == nil {
			return p, url, nil
		}
		p.stop()
		raw, _ := os.ReadFile(filepath.Join(e.work, name+".log"))
		lastErr = fmt.Errorf("%w: %s", lastErr, bytes.TrimSpace(raw))
	}
	return nil, "", lastErr
}

// stop ends the gateway first, then the replicas, and waits for all.
func (f *fleet) stop() {
	if f.gateway != nil {
		f.gateway.stop()
	}
	for _, p := range f.replicas {
		p.stop()
	}
}

// cpuSeconds is the fleet's total CPU time so far.
func (f *fleet) cpuSeconds() float64 {
	total := 0.0
	for _, p := range append([]*proc{f.gateway}, f.replicas...) {
		total += p.cpuSeconds()
	}
	return total
}

// peakRSSMB is the largest high-water RSS among the fleet's processes.
func (f *fleet) peakRSSMB() float64 {
	peak := 0.0
	for _, p := range append([]*proc{f.gateway}, f.replicas...) {
		peak = max(peak, p.peakRSSMB())
	}
	return peak
}

func httpOK(c *http.Client, url string) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// postJSON posts body to url and returns the status and answer.
func postJSON(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// promValue sums the samples of a Prometheus text metric whose name (before
// any labels) is name.
func promValue(text, name string) float64 {
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		base, _, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(val, &v); err == nil {
			sum += v
		}
	}
	return sum
}

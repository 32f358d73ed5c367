package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// buildSqod compiles the daemon under test from the checkout's source
// into outDir and returns the binary's path. The bench module sits
// inside the repository and replaces module "repro" with its parent,
// so the build needs nothing beyond the checkout.
func buildSqod(ctx context.Context, benchDir, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "sqod"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/sqod")
	cmd.Dir = benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building sqod: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one sqod process under test.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logFile *os.File
	exited  chan struct{} // closed once the process has been waited for
	readyIn time.Duration // process start until /readyz answered 200
}

// freePort asks the kernel for an unused loopback port. sqod logs the
// address it was given, not the one it bound, so ":0" cannot be used;
// the small window between closing the probe and sqod binding is
// covered by startChild's retry.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild launches sqod with default flags plus args, its log going
// to logPath (appended), and waits until /readyz answers 200.
func startChild(ctx context.Context, bin, logPath string, args ...string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stdout, cmd.Stderr = logFile, logFile
		start := time.Now()
		if err := cmd.Start(); err != nil {
			logFile.Close()
			return nil, err
		}
		c := &child{cmd: cmd, base: "http://" + addr, logFile: logFile, exited: make(chan struct{})}
		go func() {
			_ = cmd.Wait()
			close(c.exited)
		}()
		if err := c.waitReady(start); err != nil {
			c.kill()
			lastErr = err
			continue
		}
		return c, nil
	}
	return nil, fmt.Errorf("starting sqod: %w", lastErr)
}

func (c *child) waitReady(start time.Time) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.readyIn = time.Since(start)
				hc.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("sqod at %s exited before it was ready (see %s)", c.base, c.logFile.Name())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("sqod at %s never became ready (see %s)", c.base, c.logFile.Name())
}

// kill stops the process with SIGKILL and waits until it has ended.
func (c *child) kill() {
	if c == nil {
		return
	}
	_ = c.cmd.Process.Kill()
	<-c.exited
	c.logFile.Close()
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// scrape fetches /metrics and returns every sample by its full series
// name (labels included, as printed).
func (c *child) scrape() (map[string]float64, error) {
	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// non2xx sums sqod_requests_total over every code outside 200..299.
func non2xx(m map[string]float64) float64 {
	var n float64
	for k, v := range m {
		if strings.HasPrefix(k, "sqod_requests_total{") && !strings.Contains(k, `code="2`) {
			n += v
		}
	}
	return n
}

// client is one closed-loop load generator: one keep-alive connection,
// the next request only after the previous response was read in full.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status, the whole body, and the
// client-observed latency: from before the request is written until
// the last byte of the response is read.
func (c *client) do(method, path, body string) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, buf.Bytes(), time.Since(start), err
}

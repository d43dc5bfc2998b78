package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one parmbfd server process started by the benchmark. stop must
// run on every exit path; it is idempotent.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	exited  chan struct{} // closed once Wait has returned
	once    sync.Once
	rssMB   float64
}

// freePort asks the kernel for a free loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon spawns parmbfd with args on a free loopback port and returns
// once /healthz answers 200, with the time from spawn to that answer. A port
// taken between the probe and the server's bind is retried on another one.
func startDaemon(ctx context.Context, cfg *config, args ...string) (*daemon, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		logPath := filepath.Join(cfg.work, fmt.Sprintf("parmbfd-%d.log", port))
		logf, err := os.Create(logPath)
		if err != nil {
			return nil, 0, err
		}
		cmd := exec.Command(cfg.bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// Backstop for a benchmark killed outright: the kernel then stops the
		// server too.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, 0, fmt.Errorf("starting parmbfd: %w", err)
		}
		d := &daemon{cmd: cmd, url: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // the exit status is reported through the log and /healthz
			logf.Close()
			close(d.exited)
		}()
		err = d.waitHealthy(ctx)
		if err == nil {
			return d, time.Since(t0), nil
		}
		d.stop()
		lastErr = err
		if !strings.Contains(d.logTail(), "address already in use") {
			break
		}
	}
	return nil, 0, lastErr
}

func (d *daemon) waitHealthy(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	limit := time.NewTimer(3 * time.Minute)
	defer limit.Stop()
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("parmbfd exited during start-up: %s", d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-limit.C:
			return fmt.Errorf("parmbfd not healthy after 3m: %s", d.logTail())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop reads the server's peak RSS, then terminates it (SIGTERM, SIGKILL
// after a grace period) and waits until it has exited. It returns the peak
// RSS in MiB (0 if the process had already gone).
func (d *daemon) stop() float64 {
	d.once.Do(func() {
		select {
		case <-d.exited:
			return
		default:
		}
		if rss, err := vmHWM(strconv.Itoa(d.cmd.Process.Pid)); err == nil {
			d.rssMB = rss
		}
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	})
	return d.rssMB
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// clientSummary is the line parmbfd -client -json appends per invocation.
type clientSummary struct {
	Requests    int     `json:"requests"`
	Failed      int     `json:"failed"`
	PairsPerSec float64 `json:"pairsPerSec"`
	BatchPerSec float64 `json:"batchesPerSec"`
	P50Us       int64   `json:"p50us"`
	P90Us       int64   `json:"p90us"`
	P99Us       int64   `json:"p99us"`
	MaxUs       int64   `json:"maxus"`
}

var clientRuns atomic.Int64

// runClient runs one invocation of parmbfd's closed-loop load generator
// against url and returns its summary. A request that fails counts in the
// summary's Failed; an invocation that cannot run at all is an error.
func runClient(ctx context.Context, cfg *config, url, mode string, requests, batch, conc int, seed uint64) (*clientSummary, error) {
	out := filepath.Join(cfg.work, fmt.Sprintf("client-%d.jsonl", clientRuns.Add(1)))
	cmd := exec.CommandContext(ctx, cfg.bin, "-client", "-target", url, "-mode", mode,
		"-requests", strconv.Itoa(requests), "-batch", strconv.Itoa(batch),
		"-concurrency", strconv.Itoa(conc), "-seed", strconv.FormatUint(seed, 10), "-json", out)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	log, runErr := cmd.CombinedOutput()
	defer os.Remove(out)
	b, err := os.ReadFile(out)
	if err != nil || len(bytes.TrimSpace(b)) == 0 {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("parmbfd -client -mode %s wrote no summary (%v): %s", mode, runErr, log)
	}
	var s clientSummary
	if err := json.Unmarshal(bytes.TrimSpace(b), &s); err != nil {
		return nil, fmt.Errorf("parsing -client summary: %w", err)
	}
	if s.Failed > 0 {
		fmt.Fprintf(os.Stderr, "parmbfd -client -mode %s: %d of %d requests failed: %s\n", mode, s.Failed, s.Requests, log)
	}
	return &s, nil
}

// clientLoop runs -client invocations back to back until stop reports true
// (at least one), and returns their summaries.
func clientLoop(ctx context.Context, cfg *config, url, mode string, requests, batch, conc int, seed uint64, stop func() bool) ([]*clientSummary, error) {
	var out []*clientSummary
	for i := 0; i == 0 || !stop(); i++ {
		s, err := runClient(ctx, cfg, url, mode, requests, batch, conc, seed+uint64(i))
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// summarize folds client summaries into the run result and returns the
// calm quartiles (see calmLow) of their p50, p90 and p99 latencies (ms) and
// of their pair and request rates.
func summarize(res *result, ss []*clientSummary) (p50, p90, p99, pairsPerSec, reqPerSec float64) {
	var a, b, c, d, e []float64
	for _, s := range ss {
		res.attempted += s.Requests
		res.failed += s.Failed
		a = append(a, float64(s.P50Us)/1000)
		b = append(b, float64(s.P90Us)/1000)
		c = append(c, float64(s.P99Us)/1000)
		d = append(d, s.PairsPerSec)
		e = append(e, s.BatchPerSec)
	}
	return calmLow(a), calmLow(b), calmLow(c), calmHigh(d), calmHigh(e)
}

// apiClient is the benchmark's own HTTP client, for what -client cannot do:
// the /update script and the answers the correctness checks compare.
type apiClient struct {
	hc   *http.Client
	base string
}

func newAPIClient(base string) *apiClient {
	return &apiClient{base: base, hc: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2},
	}}
}

// post sends body as JSON to path and decodes a 200 answer into out.
func (c *apiClient) post(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	return nil
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parmbf/internal/par"
)

// clientSummary is the machine-readable record of one load-generation run
// (-json appends it as a line, the same one-object-per-line convention the
// BENCH_*.json trajectories use).
type clientSummary struct {
	Date          string  `json:"date"`
	Target        string  `json:"target"`
	Mode          string  `json:"mode"`
	Requests      int     `json:"requests"`
	Batch         int     `json:"batch"`
	Concurrency   int     `json:"concurrency"`
	Failed        int     `json:"failed"`
	PairsPerSec   float64 `json:"pairsPerSec"`
	BatchesPerSec float64 `json:"batchesPerSec"`
	P50Us         int64   `json:"p50us"`
	P90Us         int64   `json:"p90us"`
	P99Us         int64   `json:"p99us"`
	MaxUs         int64   `json:"maxus"`
}

// runClient floods one target endpoint — selected by -mode — with pre-drawn
// request bodies from `concurrency` connections and reports throughput and
// latency quantiles. It is the load harness for both a single server and a
// router-fronted fleet (the API is identical): "batch" floods /batch with
// random pairs, "kmedian"/"buyatbulk"/"route" flood the application-scenario
// endpoints with random instances.
func runClient(target, mode string, requests, batch, concurrency int, seed uint64, jsonOut string) error {
	if requests < 1 || batch < 1 || concurrency < 1 {
		return fmt.Errorf("-requests, -batch, and -concurrency must all be ≥ 1 (got %d, %d, %d)",
			requests, batch, concurrency)
	}
	// One idle connection per worker, so the measured quantiles are server
	// batch latency rather than TCP handshakes (DefaultTransport keeps only
	// 2 idle conns per host), and a hung server fails the run instead of
	// blocking it forever.
	hc := &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        concurrency,
			MaxIdleConnsPerHost: concurrency,
		},
	}
	stats, err := fetchStats(context.Background(), hc, target)
	if err != nil {
		return fmt.Errorf("fetching %s/stats: %w", target, err)
	}
	n := int(stats.Nodes)
	if n < 2 {
		return fmt.Errorf("server graph too small: n=%d", n)
	}
	fmt.Printf("target %s: n=%d trees=%d mode=%s\n", target, n, stats.Trees, mode)

	// Pre-draw every request body so the measured loop is pure I/O + server.
	path, bodies, check, err := buildWorkload(mode, par.NewRNG(seed), n, requests, batch)
	if err != nil {
		return err
	}

	latencies := make([]time.Duration, requests)
	errs := make([]error, requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				t0 := time.Now()
				status, data, err := call(context.Background(), hc, http.MethodPost, target+path, bodies[i])
				if err == nil {
					err = check(status, data)
				}
				errs[i], latencies[i] = err, time.Since(t0)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pairs := requests * batch
	sum := clientSummary{
		Date:          time.Now().UTC().Format(time.RFC3339),
		Target:        target,
		Mode:          mode,
		Requests:      requests,
		Batch:         batch,
		Concurrency:   concurrency,
		Failed:        failed,
		PairsPerSec:   float64(pairs) / elapsed.Seconds(),
		BatchesPerSec: float64(requests) / elapsed.Seconds(),
		P50Us:         latencies[requests/2].Microseconds(),
		P90Us:         latencies[requests*9/10].Microseconds(),
		P99Us:         latencies[requests*99/100].Microseconds(),
		MaxUs:         latencies[requests-1].Microseconds(),
	}
	fmt.Printf("sent %d batches × %d pairs in %v (%d failed)\n", requests, batch, elapsed.Round(time.Millisecond), failed)
	fmt.Printf("throughput: %.0f pairs/s, %.1f batches/s\n", sum.PairsPerSec, sum.BatchesPerSec)
	fmt.Printf("latency: p50 %v  p90 %v  p99 %v  max %v\n",
		latencies[requests/2], latencies[requests*9/10], latencies[requests*99/100], latencies[requests-1])
	if jsonOut != "" {
		if err := appendJSONLine(jsonOut, sum); err != nil {
			return fmt.Errorf("writing %s: %w", jsonOut, err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d requests failed: first error: %w", failed, requests, firstError(errs))
	}
	return nil
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildWorkload pre-draws `requests` bodies for one client -mode and returns
// the endpoint path plus a response check. batch sizes the instances: pairs
// per /batch and /route request, demands per /buyatbulk request; /kmedian
// solves once per request with a varying seed, so batch is ignored there.
// A 200 passes the check when it carries want answers, as answers counts
// them: dists, centers, routes, or (buyatbulk) one positive total cost.
func buildWorkload(mode string, rng *par.RNG, n, requests, batch int) (string, [][]byte, func(status int, data []byte) error, error) {
	randomPairs := func(count int) [][2]int64 {
		pairs := make([][2]int64, count)
		for j := range pairs {
			pairs[j] = [2]int64{int64(rng.Intn(n)), int64(rng.Intn(n))}
		}
		return pairs
	}
	var (
		path    string
		want    int
		body    func(i int) any
		answers func(data []byte) (int, error)
	)
	switch mode {
	case "batch":
		path, want = "/batch", batch
		body = func(int) any { return batchRequest{Pairs: randomPairs(batch), Stat: "min"} }
		answers = countAnswers(func(r *batchResponse) int { return len(r.Dists) })
	case "kmedian":
		path, want = "/kmedian", min(8, n)
		body = func(i int) any { return kmedianRequest{K: want, Seed: uint64(i + 1)} }
		answers = countAnswers(func(r *kmedianResponse) int { return len(r.Centers) })
	case "buyatbulk":
		// A fixed three-tier economies-of-scale catalogue; demands are random
		// unit-ish flows, so every request exercises the LCA flow accumulation
		// and the cable loader.
		cables := []wireCable{{Capacity: 1, Cost: 1}, {Capacity: 4, Cost: 2.5}, {Capacity: 16, Cost: 6}}
		path, want = "/buyatbulk", 1
		body = func(int) any {
			demands := make([]wireDemand, batch)
			for j := range demands {
				demands[j] = wireDemand{S: int64(rng.Intn(n)), T: int64(rng.Intn(n)), Amount: 1 + rng.Float64()*3}
			}
			return buyAtBulkRequest{Demands: demands, Cables: cables}
		}
		answers = countAnswers(func(r *buyAtBulkResponse) int {
			if r.Cost > 0 {
				return 1
			}
			return 0
		})
	case "route":
		path, want = "/route", min(batch, maxRoutePairs)
		body = func(int) any { return routeRequest{Pairs: randomPairs(want)} }
		answers = countAnswers(func(r *routeResponse) int { return len(r.Routes) })
	default:
		return "", nil, nil, fmt.Errorf("-mode must be batch, kmedian, buyatbulk, or route (got %q)", mode)
	}
	bodies := make([][]byte, requests)
	for i := range bodies {
		var err error
		if bodies[i], err = json.Marshal(body(i)); err != nil {
			return "", nil, nil, err
		}
	}
	check := func(status int, data []byte) error {
		if status != http.StatusOK {
			return answerError(status, data)
		}
		got, err := answers(data)
		if err == nil && got != want {
			err = fmt.Errorf("%s answer carries %d answers, want %d", path, got, want)
		}
		return err
	}
	return path, bodies, check, nil
}

// countAnswers decodes a 200 body into an R and counts its answers.
func countAnswers[R any](count func(*R) int) func(data []byte) (int, error) {
	return func(data []byte) (int, error) {
		var r R
		err := json.Unmarshal(data, &r)
		return count(&r), err
	}
}

type statsResponse struct {
	Nodes int64 `json:"nodes"`
	Trees int64 `json:"trees"`
}

func fetchStats(ctx context.Context, hc *http.Client, url string) (*statsResponse, error) {
	status, data, err := call(ctx, hc, http.MethodGet, url+"/stats", nil)
	if err == nil && status != http.StatusOK {
		err = answerError(status, data)
	}
	var s statsResponse
	if err == nil {
		err = json.Unmarshal(data, &s)
	}
	return &s, err
}

// answerError is the error of a non-200 answer, naming the structured error
// code when the body is the documented envelope.
func answerError(status int, data []byte) error {
	var er errorResponse
	if json.Unmarshal(data, &er) == nil && er.Error.Code != "" {
		return fmt.Errorf("%d %s: %s (%s)", status, http.StatusText(status), er.Error.Message, er.Error.Code)
	}
	return fmt.Errorf("%d %s", status, http.StatusText(status))
}

// call sends one request with body and reads the whole answer, for the
// client and for the router's upstream requests alike. Any HTTP answer is a
// response; only transport failures are errors.
func call(ctx context.Context, hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

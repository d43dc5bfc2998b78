// Command perfbench is the repository's end-to-end benchmark. It times the
// Theorem 7.9 pipeline the way its users meet it: drawing FRT ensembles
// through the library (frt.Embedder), and querying, updating and solving
// through the parmbfd server, built from the same source tree.
//
//	bash perfbench/run.sh --workload embed --seed 1 --seconds 20 --trace 0
//
// Every input is generated from --seed. Graphs reach parmbfd only as an -in
// file, and queries and edits only over HTTP, from at most two closed-loop
// client connections of this one process tree. The timed load on /batch and
// the scenario endpoints runs through parmbfd's own -client load generator;
// this program adds the interleaved /update script and the correctness
// checks, which -client does not have.
//
// Workloads (why each exists is in BENCHMARK.json):
//
//	embed        library path: graph → NewEmbedder → SampleEnsemble(K) → Index
//	serve-query  parmbfd -dynamic, two clients POST /batch
//	serve-update parmbfd -dynamic, one client runs an edit script on /update,
//	             the other keeps POSTing /batch
//	scenarios    parmbfd -dynamic, /kmedian, /buyatbulk and /route
//
// End-to-end metrics (--trace 0) have one name on every workload; what the
// operation is depends on the workload:
//
//	setup_s          median set-up: graph + NewEmbedder (embed), or process
//	                 spawn to the first /healthz 200 (the serve workloads)
//	op_p50_ms        latency of the workload's operation: one K-tree draw
//	                 plus its index, as the mean over a round of draws
//	                 (embed); the p50 of 256-pair /batch requests
//	                 (serve-query); one cycle of the six-update /update
//	                 script (serve-update); one scenario round, the summed
//	                 p50s of /kmedian, /buyatbulk and /route (scenarios)
//	ops_per_s        trees drawn (embed), pairs answered (serve-query),
//	                 updates applied within a cycle (serve-update), scenario
//	                 rounds at the measured per-endpoint request rates
//	                 (scenarios), per second
//	peak_rss_mb      VmHWM of the process doing the work
//	stretch_mean     mean over seeded pairs and trees of dist_T / dist_G
//	stretch_min_mean mean over the same pairs of the Min estimator / dist_G
//
// Latencies are taken per client invocation (or per round of draws, or per
// script cycle) and a run reports the lower quartile over them, rates the
// upper quartile (see calmLow). Tail latencies — the p90 and p99 of the read
// path: an in-process 256-pair MinBatch on the drawn index (embed), /batch
// (serve-query, and serve-update while updates run), /route (scenarios) —
// are printed in the detail line, not as bounded metrics: on a shared
// two-core virtual machine they drift too far from run to run to bound.
//
// The traced run (--trace 1) replays the same inputs in-process, stage by
// stage, inside spans, and prints the per-layer metrics; layers a workload
// does not exercise read 0. Its spans are written to
// .bench_build/work/spans/<workload>-seed<n>.jsonl.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"parmbf/internal/par"
)

// sizes fixes every workload's input size. defaultSizes is the benchmark;
// tinySizes keeps the smoke test to seconds.
type sizes struct {
	EmbedN, EmbedK int // graph size and trees per draw (embed)
	ServeN, ServeK int // graph size and ensemble size (serve-query, serve-update)
	ScenN, ScenK   int // graph size and ensemble size (scenarios)

	Batch          int    // pairs per /batch request and per in-process batch
	QueryRequests  int    // /batch requests per -client invocation
	SetupRepeats   int    // set-ups per run; setup_s is their median
	CheckPairs     int    // pairs the stretch, dominance and /batch checks use
	CheckBatches   int    // /batch requests compared bitwise per check
	ReplayUpdates  int    // updates replayed in-process (a whole number of cycles)
	KMedianK       int    // k of each /kmedian request
	Demands        int    // demands per /buyatbulk request
	RoutePairs     int    // pairs per /route request
	ScenRequests   [3]int // requests per -client invocation: kmedian, buyatbulk, route
	ReadsPerEmbed  int    // in-process read batches timed per draw (embed)
	EmbedRound     int    // draws per round; op_p50_ms is taken over the rounds' mean draws
	MinEmbedDraws  int    // draws made even when --seconds has run out
	MinUpdateSteps int    // updates made even when --seconds has run out
}

var defaultSizes = sizes{
	EmbedN: 256, EmbedK: 2,
	ServeN: 2048, ServeK: 16,
	ScenN: 512, ScenK: 4,
	Batch: 256, QueryRequests: 1000, SetupRepeats: 3,
	CheckPairs: 4096, CheckBatches: 8, ReplayUpdates: 24,
	KMedianK: 8, Demands: 64, RoutePairs: 64,
	ScenRequests:  [3]int{100, 4, 1000},
	ReadsPerEmbed: 1000, EmbedRound: 4, MinEmbedDraws: 8, MinUpdateSteps: 24,
}

var tinySizes = sizes{
	EmbedN: 64, EmbedK: 2,
	ServeN: 128, ServeK: 4,
	ScenN: 64, ScenK: 2,
	Batch: 32, QueryRequests: 50, SetupRepeats: 2,
	CheckPairs: 128, CheckBatches: 2, ReplayUpdates: 12,
	KMedianK: 4, Demands: 8, RoutePairs: 8,
	ScenRequests:  [3]int{4, 4, 20},
	ReadsPerEmbed: 20, EmbedRound: 2, MinEmbedDraws: 4, MinUpdateSteps: 12,
}

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sz       sizes
	bin      string // the parmbfd binary built from the tree under test
	work     string // scratch directory inside the checkout
}

// metric is one reported value with its unit and sample count.
type metric struct {
	value   float64
	unit    string
	samples int
}

// result is what one workload run measured and checked.
type result struct {
	attempted, failed int
	checks            []string // failed correctness checks, for stderr
	e2e               map[string]metric
	layer             map[string]metric
	detail            map[string]any // info beyond the metrics: tails, counts
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}, detail: map[string]any{}}
}

// check counts one correctness check; a false ok counts it as failed.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64, unit string, samples int) {
	r.e2e[name] = metric{v, unit, samples}
}

func (r *result) setLayer(name string, v float64, unit string, samples int) {
	r.layer[name] = metric{v, unit, samples}
}

// endToEnd and perLayer list the metric names BENCHMARK.json declares, with
// their units; every run prints exactly one of the two lists.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"op_p50_ms", "ms"}, {"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"}, {"stretch_mean", "ratio"}, {"stretch_min_mean", "ratio"},
}

var perLayer = [][2]string{
	{"graph.gen_s", "s"}, {"hopset.build_s", "s"}, {"hopset.arcs", "count"},
	{"simgraph.build_s", "s"}, {"oracle.fixpoint_s", "s"}, {"oracle.fixpoint_max_s", "s"},
	{"oracle.iters", "count"}, {"oracle.max_iters", "count"}, {"oracle.work", "count"},
	{"oracle.depth", "count"}, {"le.len_mean", "count"}, {"le.len_max", "count"},
	{"frt.buildtree_ms", "ms"}, {"par.efficiency", "ratio"}, {"direct.le_s", "s"},
	{"index.build_ms", "ms"}, {"index.minbatch_us", "us"}, {"index.medianbatch_us", "us"},
	{"http.batch_overhead_ms", "ms"}, {"dyn.apply_ms", "ms"}, {"dyn.recomputed_nodes", "count"},
	{"dyn.affected_trees", "count"}, {"dyn.repair_iters", "count"}, {"dyn.index_build_ms", "ms"},
	{"apps.kmedian_ms", "ms"}, {"apps.buyatbulk_ms", "ms"}, {"apps.routing_build_s", "s"},
	{"apps.route_batch_ms", "ms"}, {"apps.kmedian_alloc_mb", "MB"},
	{"apps.buyatbulk_alloc_mb", "MB"}, {"apps.routing_alloc_mb", "MB"},
	{"trace.overhead_pct", "%"},
	{"self.graph_ms", "ms"}, {"self.hopset_ms", "ms"}, {"self.simgraph_ms", "ms"},
	{"self.frt_ms", "ms"}, {"self.apps_ms", "ms"}, {"self.parmbfd_ms", "ms"},
	{"self.bench_ms", "ms"},
}

var workloads = map[string]func(context.Context, *config, *tracer) (*result, error){
	"embed":        runEmbed,
	"serve-query":  runServeQuery,
	"serve-update": runServeUpdate,
	"scenarios":    runScenarios,
}

func main() {
	var (
		workload = flag.String("workload", "", "embed | serve-query | serve-update | scenarios")
		seed     = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", 10, "how long the timed phase runs")
		trace    = flag.Int("trace", 0, "1: replay in-process inside spans and print the per-layer metrics")
		bin      = flag.String("parmbfd", "", "parmbfd binary built from the tree under test")
		work     = flag.String("work", "", "scratch directory inside the checkout")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds, trace int, bin, work string) error {
	if _, ok := workloads[workload]; !ok {
		return fmt.Errorf("unknown --workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	if bin == "" || work == "" {
		return fmt.Errorf("--parmbfd and --work are required (run through run.sh)")
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	cfg := &config{workload: workload, seed: seed, seconds: float64(seconds), trace: trace == 1,
		sz: defaultSizes, bin: bin, work: work}
	res, tr, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	if tr != nil {
		dir := filepath.Join(work, "spans")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))); err != nil {
			return err
		}
	}
	for _, c := range res.checks {
		fmt.Fprintln(os.Stderr, "check failed:", c)
	}
	info := map[string]any{
		"meta":    runMeta(cfg),
		"samples": sampleCounts(res, cfg.trace),
		"detail":  res.detail,
		"spans":   len(tr.spanList()),
	}
	line, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	final, err := finalLine(res, cfg.trace)
	if err != nil {
		return err
	}
	fmt.Println(final)
	return nil
}

// runWorkload runs one workload in a private scratch directory that it
// removes again.
func runWorkload(ctx context.Context, cfg *config) (*result, *tracer, error) {
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	cfg.work = dir
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res, err := workloads[cfg.workload](ctx, cfg, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if tr != nil {
		for layer, d := range tr.selfTimes() {
			res.setLayer("self."+layer+"_ms", ms(d), "ms", 1)
		}
	}
	return res, tr, nil
}

// finalLine renders the last stdout line: every declared metric of the
// run's kind, in declaration order. A declared metric the workload did not
// reach reads 0 (per-layer only; the end-to-end set is complete on every
// workload).
func finalLine(res *result, traced bool) (string, error) {
	names, got := endToEnd, res.e2e
	if traced {
		names, got = perLayer, res.layer
	}
	metrics := map[string]any{}
	for _, nu := range names {
		m, ok := got[nu[0]]
		if !ok && !traced {
			return "", fmt.Errorf("end-to-end metric %s was not measured", nu[0])
		}
		if ok && m.unit != nu[1] {
			return "", fmt.Errorf("metric %s measured in %s, declared in %s", nu[0], m.unit, nu[1])
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", nu[0], m.value)
		}
		metrics[nu[0]] = map[string]any{"value": m.value, "unit": nu[1]}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   metrics,
	})
	return string(b), err
}

func sampleCounts(res *result, traced bool) map[string]int {
	got := res.e2e
	if traced {
		got = res.layer
	}
	out := map[string]int{}
	for name, m := range got {
		out[name] = m.samples
	}
	return out
}

// runMeta is printed with every result: parallel numbers mean nothing
// without the core count they were measured at.
func runMeta(cfg *config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"par_procs":  par.MaxProcs,
		"go":         runtime.Version(),
		"source":     sourceDigest(),
		"sizes":      cfg.sz,
	}
}

// sourceDigest identifies the tree under test. The benchmark's checkout is
// not a git repository, so it hashes the Go sources and module files (the
// benchmark's own included) instead of naming a commit.
func sourceDigest() string {
	root := "." // run.sh starts the benchmark from the checkout's root
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ---- statistics ----

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// calmLow and calmHigh summarise the per-invocation (or per-round) figures
// of one run by its least-disturbed quarter: the lower quartile of
// latencies, the upper quartile of rates. On a shared virtual machine,
// neighbours can slow the benchmark by a third for minutes at a time; a run
// that is slowed for part of its length still reports its undisturbed part.
func calmLow(xs []float64) float64  { return quantile(xs, 0.25) }
func calmHigh(xs []float64) float64 { return quantile(xs, 0.75) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// deadline reports whether the timed phase that started at t0 is over.
func deadline(ctx context.Context, cfg *config, t0 time.Time) bool {
	return ctx.Err() != nil || time.Since(t0).Seconds() >= cfg.seconds
}

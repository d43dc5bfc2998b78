// Command benchgate is the benchmark-regression gate of the bench CI
// pipeline: it reads a BENCH_*.json trajectory (one JSON object per line,
// as appended by `make bench-graph` / `make bench-mbf` / `make bench-scale`,
// each with a `bench` array of raw `go test -bench` lines), compares the
// newest entry containing the selected benchmarks against the previous such
// entry, and exits non-zero when any selected benchmark's ns/op — or, with
// -maxbytes, B/op — regressed beyond the allowed ratio. Entry selection
// skips entries from other suites: core and scale runs append to the same
// trajectory files, so the two newest lines need not both carry the gated
// names.
//
// Usage:
//
//	benchgate -file BENCH_mbf.json -match 'Iterate' -max 1.20
//	benchgate -file BENCH_graph.json -match 'ScaleFreeze' -max 1.25 -maxbytes 1.10
//
// In CI the checked-out file holds the committed baseline; the bench job
// appends one fresh line before gating, so "last vs previous" is "this run
// vs committed baseline". benchstat renders the human-readable comparison in
// the job log; benchgate is the machine-checkable pass/fail.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

type record struct {
	Date   string   `json:"date"`
	Commit string   `json:"commit"`
	Bench  []string `json:"bench"`
}

// result is one benchmark's measurements. Bytes is -1 when the line carried
// no B/op column (benchmark run without -benchmem).
type result struct {
	Ns    float64
	Bytes float64
}

// parseBenchLines extracts name → {ns/op, B/op} from raw `go test -bench`
// output lines. The trailing -N GOMAXPROCS suffix is stripped so runs from
// machines with different core counts stay comparable. Metrics a benchmark
// reports itself (b.ReportMetric) print between ns/op and B/op.
func parseBenchLines(lines []string) map[string]result {
	out := make(map[string]result)
	re := regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) B/op)?`)
	for _, l := range lines {
		m := re.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		name := m[1]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		r := result{Ns: ns, Bytes: -1}
		if m[3] != "" {
			if bts, err := strconv.ParseFloat(m[3], 64); err == nil {
				r.Bytes = bts
			}
		}
		out[name] = r
	}
	return out
}

// gate compares ns/op — and, when maxBytes > 0, B/op — of the matched
// benchmarks and returns one line per comparison plus the names that
// regressed beyond the allowed ratios. Benchmarks present in only one run
// are reported but never fail the gate (they are new or removed, not
// regressed); likewise a benchmark missing a B/op column on either side is
// gated on ns/op only.
func gate(baseline, current map[string]result, match *regexp.Regexp, maxRatio, maxBytes float64) (report []string, failed []string) {
	for name, old := range baseline {
		if !match.MatchString(name) {
			continue
		}
		now, ok := current[name]
		if !ok {
			report = append(report, fmt.Sprintf("%-40s removed (baseline %.0f ns/op)", name, old.Ns))
			continue
		}
		ratio := now.Ns / old.Ns
		status := "ok"
		if ratio > maxRatio {
			status = "REGRESSED"
			failed = append(failed, name)
		}
		line := fmt.Sprintf("%-40s %12.0f → %12.0f ns/op  (%.2fx)", name, old.Ns, now.Ns, ratio)
		if maxBytes > 0 && old.Bytes > 0 && now.Bytes >= 0 {
			bratio := now.Bytes / old.Bytes
			line += fmt.Sprintf("  %12.0f → %12.0f B/op  (%.2fx)", old.Bytes, now.Bytes, bratio)
			if bratio > maxBytes {
				if status == "ok" {
					failed = append(failed, name)
				}
				status = "REGRESSED[B/op]"
			}
		}
		report = append(report, line+"  "+status)
	}
	for name := range current {
		if match.MatchString(name) {
			if _, ok := baseline[name]; !ok {
				report = append(report, fmt.Sprintf("%-40s new (%.0f ns/op)", name, current[name].Ns))
			}
		}
	}
	return report, failed
}

// selectEntries picks the two most recent records whose bench lines include
// at least one benchmark matching the selector. BENCH_*.json trajectories
// interleave entries from different suites (the core tier and the scale
// tier append to the same files), so "last two lines" would compare a scale
// entry against a core entry and report everything as removed/new.
func selectEntries(recs []record, match *regexp.Regexp) (base, cur record, ok bool) {
	var hits []record
	for _, r := range recs {
		parsed := parseBenchLines(r.Bench)
		for name := range parsed {
			if match.MatchString(name) {
				hits = append(hits, r)
				break
			}
		}
	}
	if len(hits) < 2 {
		return record{}, record{}, false
	}
	return hits[len(hits)-2], hits[len(hits)-1], true
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: bad JSON line: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func main() {
	file := flag.String("file", "", "BENCH_*.json trajectory (JSON lines)")
	matchExpr := flag.String("match", ".", "regexp selecting the gated benchmarks")
	maxRatio := flag.Float64("max", 1.20, "maximum allowed new/old ns-per-op ratio")
	maxBytes := flag.Float64("maxbytes", 0, "maximum allowed new/old B-per-op ratio (0 disables allocation gating)")
	flag.Parse()
	if *file == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -file is required")
		os.Exit(2)
	}
	match, err := regexp.Compile(*matchExpr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: bad -match: %v\n", err)
		os.Exit(2)
	}
	recs, err := readRecords(*file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	base, cur, ok := selectEntries(recs, match)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchgate: %s has fewer than 2 entries matching %q; need a baseline and a fresh run (run `make bench-*` first)\n", *file, *matchExpr)
		os.Exit(2)
	}
	fmt.Printf("benchgate %s: baseline %s (%s) vs current %s (%s), max ratio %.2f\n",
		*file, base.Commit, base.Date, cur.Commit, cur.Date, *maxRatio)
	report, failed := gate(parseBenchLines(base.Bench), parseBenchLines(cur.Bench), match, *maxRatio, *maxBytes)
	if len(report) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmark matched %q in %s\n", *matchExpr, *file)
		os.Exit(2)
	}
	for _, l := range report {
		fmt.Println(l)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: regression beyond allowed ratio in: %s\n", strings.Join(failed, ", "))
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}

package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestParseBenchLines(t *testing.T) {
	lines := []string{
		"BenchmarkIterate4096         \t      38\t  33650869 ns/op\t 4857426 B/op\t    4099 allocs/op",
		"BenchmarkDijkstra4096-8      \t    1081\t   1144411 ns/op\t  147536 B/op\t       7 allocs/op",
		"ok  \tparmbf/internal/mbf\t6.376s",
		"BenchmarkSub/trees=4-16      \t      10\t 158000000 ns/op",
		"BenchmarkEmbedderSample-2    \t       3\t   8713934 ns/op\t         5.000 iters/op\t    431381 work/op\t 1397888 B/op\t    9202 allocs/op",
	}
	got := parseBenchLines(lines)
	want := map[string]result{
		"BenchmarkIterate4096":  {Ns: 33650869, Bytes: 4857426},
		"BenchmarkDijkstra4096": {Ns: 1144411, Bytes: 147536},
		"BenchmarkSub/trees=4":  {Ns: 158000000, Bytes: -1}, // no -benchmem column
		// b.ReportMetric columns print between ns/op and B/op.
		"BenchmarkEmbedderSample": {Ns: 8713934, Bytes: 1397888},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, r := range want {
		if got[name] != r {
			t.Errorf("%s = %+v, want %+v", name, got[name], r)
		}
	}
}

func TestGate(t *testing.T) {
	base := map[string]result{
		"BenchmarkIterate4096":  {Ns: 100, Bytes: -1},
		"BenchmarkDijkstra4096": {Ns: 200, Bytes: -1},
		"BenchmarkRemoved":      {Ns: 50, Bytes: -1},
		"BenchmarkUnrelated":    {Ns: 10, Bytes: -1},
	}
	cur := map[string]result{
		"BenchmarkIterate4096":  {Ns: 115, Bytes: -1}, // +15%: within the 20% budget
		"BenchmarkDijkstra4096": {Ns: 260, Bytes: -1}, // +30%: regressed
		"BenchmarkNew":          {Ns: 42, Bytes: -1},
		"BenchmarkUnrelated":    {Ns: 1000, Bytes: -1}, // regressed but not matched
	}
	match := regexp.MustCompile(`Iterate|Dijkstra|Removed|New`)
	report, failed := gate(base, cur, match, 1.20, 0)
	if len(failed) != 1 || failed[0] != "BenchmarkDijkstra4096" {
		t.Fatalf("failed = %v, want only BenchmarkDijkstra4096", failed)
	}
	joined := strings.Join(report, "\n")
	for _, want := range []string{"REGRESSED", "removed", "new", "BenchmarkIterate4096"} {
		if !strings.Contains(joined, want) {
			t.Errorf("report missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "Unrelated") {
		t.Errorf("report includes unmatched benchmark:\n%s", joined)
	}
}

func TestGateBytes(t *testing.T) {
	base := map[string]result{
		"BenchmarkA": {Ns: 100, Bytes: 1000},
		"BenchmarkB": {Ns: 100, Bytes: 1000},
		"BenchmarkC": {Ns: 100, Bytes: -1}, // baseline run without -benchmem
	}
	cur := map[string]result{
		"BenchmarkA": {Ns: 105, Bytes: 1500}, // ns fine, B/op +50%: regressed
		"BenchmarkB": {Ns: 105, Bytes: 1050}, // both within budget
		"BenchmarkC": {Ns: 105, Bytes: 9999}, // no baseline bytes: ns-only gating
	}
	match := regexp.MustCompile(`.`)
	report, failed := gate(base, cur, match, 1.20, 1.10)
	if len(failed) != 1 || failed[0] != "BenchmarkA" {
		t.Fatalf("failed = %v, want only BenchmarkA", failed)
	}
	joined := strings.Join(report, "\n")
	if !strings.Contains(joined, "REGRESSED[B/op]") {
		t.Errorf("report missing B/op regression marker:\n%s", joined)
	}
	// With -maxbytes off the same inputs must pass.
	if _, failed := gate(base, cur, match, 1.20, 0); len(failed) != 0 {
		t.Fatalf("maxbytes=0 still failed: %v", failed)
	}
	// A benchmark can regress on both axes but must be reported once.
	cur["BenchmarkA"] = result{Ns: 500, Bytes: 9000}
	_, failed = gate(base, cur, match, 1.20, 1.10)
	n := 0
	for _, f := range failed {
		if f == "BenchmarkA" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("BenchmarkA reported %d times in %v, want once", n, failed)
	}
}

func TestSelectEntries(t *testing.T) {
	recs := []record{
		{Commit: "core1", Bench: []string{"BenchmarkIterate \t 10\t 100 ns/op"}},
		{Commit: "scale1", Bench: []string{"BenchmarkScaleFreeze/n=65536 \t 1\t 900 ns/op"}},
		{Commit: "core2", Bench: []string{"BenchmarkIterate \t 10\t 105 ns/op"}},
		{Commit: "scale2", Bench: []string{"BenchmarkScaleFreeze/n=65536 \t 1\t 910 ns/op"}},
		{Commit: "junk", Bench: []string{"ok \tparmbf\t1.0s"}},
	}
	base, cur, ok := selectEntries(recs, regexp.MustCompile(`ScaleFreeze`))
	if !ok || base.Commit != "scale1" || cur.Commit != "scale2" {
		t.Fatalf("scale selection = %s/%s ok=%v, want scale1/scale2", base.Commit, cur.Commit, ok)
	}
	base, cur, ok = selectEntries(recs, regexp.MustCompile(`Iterate`))
	if !ok || base.Commit != "core1" || cur.Commit != "core2" {
		t.Fatalf("core selection = %s/%s ok=%v, want core1/core2", base.Commit, cur.Commit, ok)
	}
	if _, _, ok := selectEntries(recs, regexp.MustCompile(`NoSuch`)); ok {
		t.Fatal("selection with no matching entries must report !ok")
	}
	if _, _, ok := selectEntries(recs[:2], regexp.MustCompile(`ScaleFreeze`)); ok {
		t.Fatal("a single matching entry is not enough for a comparison")
	}
}

func TestReadRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	content := `{"date":"2026-07-29T00:00:00Z","commit":"abc","bench":["BenchmarkX \t 10\t 100 ns/op"]}
{"date":"2026-07-30T00:00:00Z","commit":"def","bench":["BenchmarkX \t 10\t 90 ns/op"]}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Commit != "abc" || recs[1].Commit != "def" {
		t.Fatalf("records = %+v", recs)
	}
	if len(recs[1].Bench) != 1 {
		t.Fatalf("bench lines = %v", recs[1].Bench)
	}
}

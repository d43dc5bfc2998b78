package main

import (
	"context"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at tiny sizes for about a second, untraced
// and traced, on two seeds: every declared metric must be printed with its
// unit, and every correctness check must pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds parmbfd and starts servers")
	}
	bin := filepath.Join(t.TempDir(), "parmbfd")
	if out, err := exec.Command("go", "build", "-o", bin, "parmbf/cmd/parmbfd").CombinedOutput(); err != nil {
		t.Fatalf("building parmbfd: %v\n%s", err, out)
	}
	for _, workload := range []string{"embed", "serve-query", "serve-update", "scenarios"} {
		for _, seed := range []uint64{1, 2} {
			for _, traced := range []bool{false, true} {
				cfg := &config{workload: workload, seed: seed, seconds: 1, trace: traced,
					sz: tinySizes, bin: bin, work: t.TempDir()}
				res, _, err := runWorkload(context.Background(), cfg)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", workload, seed, traced, err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("%s seed %d trace %v: %d of %d failed: %v", workload, seed, traced, res.failed, res.attempted, res.checks)
				}
				line, err := finalLine(res, traced)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", workload, seed, traced, err)
				}
				checkLine(t, line, traced)
			}
		}
	}
}

func checkLine(t *testing.T, line string, traced bool) {
	t.Helper()
	var out struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	if out.Correct == nil || !*out.Correct || out.Failed == nil || out.Attempted < 1 {
		t.Errorf("result line %q: want correct, failed and attempted ≥ 1", line)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(out.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(out.Metrics), len(want))
	}
	for _, nu := range want {
		m, ok := out.Metrics[nu[0]]
		if !ok || m.Value == nil || m.Unit != nu[1] {
			t.Errorf("metric %s: got %+v, want a value with unit %s", nu[0], m, nu[1])
			continue
		}
		if !traced && *m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", nu[0], *m.Value)
		}
	}
}

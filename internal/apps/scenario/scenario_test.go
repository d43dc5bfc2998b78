package scenario

import (
	"math"
	"strings"
	"testing"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.RandomConnected(24, 60, 8, par.NewRNG(3))
}

func TestResolveSamplesFreshTrees(t *testing.T) {
	g := testGraph(t)
	ens, err := Options{RNG: par.NewRNG(7)}.Resolve(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Trees) != 2 {
		t.Fatalf("got %d trees, want the default 2", len(ens.Trees))
	}
	// An explicit Trees count overrides the scenario default.
	ens, err = Options{RNG: par.NewRNG(7), Trees: 3}.Resolve(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Trees) != 3 {
		t.Fatalf("got %d trees, want 3", len(ens.Trees))
	}
}

func TestResolveInjectedEmbedderAndEnsemble(t *testing.T) {
	g := testGraph(t)
	emb, err := frt.NewEmbedder(g, frt.Options{RNG: par.NewRNG(11)})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := Options{Embedder: emb}.Resolve(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Trees) != 2 {
		t.Fatalf("embedder injection: got %d trees, want 2", len(ens.Trees))
	}
	// An injected ensemble wins over everything and needs no RNG.
	got, err := Options{Ensemble: ens}.Resolve(g, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got != ens {
		t.Fatal("injected ensemble was not returned as-is")
	}
}

func TestResolveErrors(t *testing.T) {
	g := testGraph(t)
	if _, err := (Options{}).Resolve(g, 2); err == nil || !strings.Contains(err.Error(), "RNG") {
		t.Fatalf("missing RNG: err = %v", err)
	}
	if _, err := (Options{Ensemble: &frt.Ensemble{}}).Resolve(g, 2); err == nil || !strings.Contains(err.Error(), "no trees") {
		t.Fatalf("empty injected ensemble: err = %v", err)
	}
}

func TestVisit(t *testing.T) {
	g := testGraph(t)
	ens, err := Options{RNG: par.NewRNG(13), Trees: 4}.Resolve(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	all, err := Options{}.Visit(ens)
	if err != nil || len(all) != 4 {
		t.Fatalf("Visit all: %d trees, err %v", len(all), err)
	}
	slice, err := Options{FirstTree: 1, Trees: 2}.Visit(ens)
	if err != nil || len(slice) != 2 || slice[0] != ens.Trees[1] {
		t.Fatalf("Visit [1,3): %d trees, err %v", len(slice), err)
	}
	// Trees overshooting the ensemble clamps to the end.
	tail, err := Options{FirstTree: 3, Trees: 99}.Visit(ens)
	if err != nil || len(tail) != 1 || tail[0] != ens.Trees[3] {
		t.Fatalf("Visit clamped tail: %d trees, err %v", len(tail), err)
	}
	if _, err := (Options{FirstTree: 4}).Visit(ens); err == nil {
		t.Fatal("out-of-range FirstTree must error")
	}
	if _, err := (Options{FirstTree: -1}).Visit(ens); err == nil {
		t.Fatal("negative FirstTree must error")
	}
	if _, err := (Options{}).Visit(&frt.Ensemble{}); err == nil {
		t.Fatal("empty ensemble must error")
	}
}

// TestSpan pins the per-tree bounds, including the clamps that must not
// overflow (Trees near MaxInt) and the inputs that must be rejected.
func TestSpan(t *testing.T) {
	cases := []struct {
		name      string
		o         Options
		k, lo, hi int
		wantErr   bool
	}{
		{"all trees", Options{}, 4, 0, 4, false},
		{"prefix", Options{Trees: 2}, 4, 0, 2, false},
		{"middle", Options{FirstTree: 1, Trees: 2}, 4, 1, 3, false},
		{"exact tail", Options{FirstTree: 1, Trees: 3}, 4, 1, 4, false},
		{"overshoot clamps", Options{FirstTree: 3, Trees: 99}, 4, 3, 4, false},
		{"MaxInt clamps", Options{FirstTree: 1, Trees: math.MaxInt}, 4, 1, 4, false},
		{"MaxInt from 0", Options{Trees: math.MaxInt}, 4, 0, 4, false},
		{"negative trees", Options{Trees: -1}, 4, 0, 0, true},
		{"MinInt trees", Options{FirstTree: 1, Trees: math.MinInt}, 4, 0, 0, true},
		{"first past end", Options{FirstTree: 4}, 4, 0, 0, true},
		{"negative first", Options{FirstTree: -1}, 4, 0, 0, true},
		{"no trees", Options{}, 0, 0, 0, true},
	}
	for _, c := range cases {
		lo, hi, err := c.o.Span(c.k)
		if (err != nil) != c.wantErr {
			t.Fatalf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
		if err == nil && (lo != c.lo || hi != c.hi) {
			t.Fatalf("%s: Span(%d) = [%d, %d), want [%d, %d)", c.name, c.k, lo, hi, c.lo, c.hi)
		}
	}
}

package frt

import (
	"fmt"
	"os"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// scaleSizes mirrors internal/graph's scale sweep: 2^16 by default, plus the
// 2^20 point when PARMBF_SCALE=1 (set by `make bench-scale`).
func scaleSizes() []int {
	if os.Getenv("PARMBF_SCALE") != "" {
		return []int{1 << 16, 1 << 20}
	}
	return []int{1 << 16}
}

// scaleGraph returns the shared scale workload: a Chung-Lu power-law graph
// with average degree 8 and tail exponent 2.5 — low diameter, so the LE-list
// fixpoint converges in few iterations even at 2^20.
func scaleGraph(n int) *graph.Graph {
	return graph.ChungLu(n, 8, 2.5, 100, par.NewRNG(42))
}

// BenchmarkScaleLELists measures the direct (Khan et al.) LE-list fixpoint
// on the power-law workload — the dominant middle stage of the pipeline.
func BenchmarkScaleLELists(b *testing.B) {
	for _, n := range scaleSizes() {
		g := scaleGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				order := NewOrder(g.N(), par.NewRNG(7))
				leListsOnGraph(g, order, nil)
			}
		})
	}
}

// BenchmarkScaleBuildTree measures tree assembly from warm LE lists at scale
// (one center pass per node, serial cluster grouping).
func BenchmarkScaleBuildTree(b *testing.B) {
	for _, n := range scaleSizes() {
		g := scaleGraph(n)
		order := NewOrder(g.N(), par.NewRNG(7))
		lists, _ := leListsOnGraph(g, order, nil)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildTree(lists, order, 1.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaleEmbedderSample measures a K=2 ensemble draw through the full
// oracle pipeline (landmark hop set → H → oracle fixpoints → trees) at 2^16
// — the end-to-end shape the CI scale-smoke job runs.
func BenchmarkScaleEmbedderSample(b *testing.B) {
	if os.Getenv("PARMBF_SCALE") == "" {
		b.Skip("set PARMBF_SCALE=1: the 2^16 oracle draw takes minutes on one core")
	}
	n := 1 << 16
	g := scaleGraph(n)
	e, err := NewEmbedder(g, Options{RNG: par.NewRNG(42), HopSet: HopSetLandmark})
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.SampleEnsemble(2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

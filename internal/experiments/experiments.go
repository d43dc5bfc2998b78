// Package experiments implements the reproduction suite of DESIGN.md —
// experiments E1–E12, ablations A1–A4, and extension X1: one function per paper claim, each
// producing a printable table whose rows are regenerated measurements. The
// package is shared by cmd/benchall (which prints all tables and the
// EXPERIMENTS.md payload) and the root bench suite (which runs each
// experiment as a testing.B benchmark).
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/hopset"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
	"parmbf/internal/simgraph"
)

// Table is one experiment's result: a titled grid of measurement rows plus
// the paper claim it reproduces.
type Table struct {
	ID         string
	Title      string
	PaperClaim string
	Header     []string
	Rows       [][]string
	Notes      string
}

// Config controls experiment sizes.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Quick shrinks the workloads for use inside testing.B loops.
	Quick bool
}

func (c Config) rng() *par.RNG { return par.NewRNG(c.Seed) }

// sizes returns a geometric size sweep, halved in Quick mode.
func (c Config) sizes(full ...int) []int {
	if !c.Quick {
		return full
	}
	out := make([]int, 0, len(full))
	for _, n := range full {
		if n <= full[0]*2 {
			out = append(out, n)
		}
	}
	return out
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "paper: %s\n", t.PaperClaim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func d0(v int) string     { return fmt.Sprintf("%d", v) }

// E1Stretch measures the expected stretch of the oracle-pipeline FRT
// embedding across graph sizes (Theorem 7.9 / Corollary 7.10: O(log n)).
func E1Stretch(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "E1",
		Title:      "expected stretch of sampled FRT trees (oracle pipeline)",
		PaperClaim: "expected stretch O(log n); dist_T ≥ dist_G always (Thm 7.9, Def 7.1)",
		Header:     []string{"graph", "n", "trees", "avgStretch", "maxAvgStretch", "/ln n", "minRatio"},
	}
	trees, pairs := 8, 30
	if cfg.Quick {
		trees, pairs = 3, 15
	}
	type workload struct {
		name string
		g    *graph.Graph
	}
	var ws []workload
	for _, n := range cfg.sizes(64, 128, 256) {
		ws = append(ws, workload{fmt.Sprintf("random-%d", n), graph.RandomConnected(n, 3*n, 8, rng)})
	}
	if !cfg.Quick {
		ws = append(ws,
			workload{"grid-16x16", graph.GridGraph(16, 16, 4, rng)},
			workload{"cycle-256", graph.CycleGraph(256, 1)},
		)
	}
	for _, w := range ws {
		stats, err := frt.MeasureStretch(w.g,
			func() (*frt.Embedding, error) { return frt.Sample(w.g, frt.Options{RNG: rng}) },
			trees, pairs, rng)
		if err != nil {
			panic(err)
		}
		ln := math.Log(float64(w.g.N()))
		t.Rows = append(t.Rows, []string{
			w.name, d0(w.g.N()), d0(trees),
			f2(stats.AvgStretch), f2(stats.MaxAvgStretch), f2(stats.MaxAvgStretch / ln),
			f2(stats.MinRatio),
		})
	}
	t.Notes = "claim reproduced if maxAvgStretch/ln n stays roughly flat and minRatio ≥ 1"
	return t
}

// E2SPDH measures SPD(H) against SPD(G) and the log²n envelope
// (Theorem 4.5) on high-SPD inputs.
func E2SPDH(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "E2",
		Title:      "shortest-path diameter of the simulated graph H",
		PaperClaim: "SPD(H) ∈ O(log² n) w.h.p. (Thm 4.5)",
		Header:     []string{"graph", "n", "SPD(G)", "SPD(H)", "log²n", "oracleIters"},
	}
	for _, n := range cfg.sizes(64, 128, 256) {
		g := graph.PathGraph(n, 1)
		hs := hopset.DefaultSkeleton(g, rng, nil)
		h := simgraph.Build(hs, 0, rng)
		spdH := graph.SPD(h.Materialize())
		// Oracle iterations to the APSP fixpoint equal SPD(H)+O(1) as seen
		// through the decomposition (the count includes the final iteration
		// that confirms the fixpoint).
		oracle := simgraph.NewOracle(h, nil)
		_, iters := oracle.RunToFixpoint(frt.InitialStates(n), semiring.Identity[semiring.DistMap](), simgraph.MaxIters(n))
		l := math.Log2(float64(n))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("path-%d", n), d0(n), d0(n - 1), d0(spdH), f2(l * l), d0(iters),
		})
	}
	t.Notes = "claim reproduced if SPD(H) ≪ SPD(G) and stays below the log²n column's scale"
	return t
}

// E3HStretch measures how well H's metric preserves G's (Theorem 4.5,
// Equation 4.16).
func E3HStretch(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "E3",
		Title:      "distance preservation of H",
		PaperClaim: "dist_G ≤ dist_H ≤ (1+ε̂)^{Λ+1}·dist_G ∈ (1+o(1))·dist_G (Thm 4.5, eq 4.16)",
		Header:     []string{"graph", "n", "ε̂", "Λ", "bound", "maxRatio", "minRatio"},
	}
	for _, n := range cfg.sizes(64, 128) {
		g := graph.RandomConnected(n, 3*n, 6, rng)
		hs := hopset.DefaultSkeleton(g, rng, nil)
		h := simgraph.Build(hs, 0, rng)
		eg := graph.APSPDijkstra(g)
		eh := graph.APSPDijkstra(h.Materialize())
		maxR, minR := 1.0, math.Inf(1)
		for v := 0; v < n; v++ {
			for w := v + 1; w < n; w++ {
				r := eh.At(v, w) / eg.At(v, w)
				if r > maxR {
					maxR = r
				}
				if r < minR {
					minR = r
				}
			}
		}
		bound := math.Pow(1+h.EpsHat, float64(h.Lambda+1))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("random-%d", n), d0(n), fmt.Sprintf("%.4f", h.EpsHat),
			d0(h.Lambda), f2(bound), fmt.Sprintf("%.4f", maxR), fmt.Sprintf("%.4f", minR),
		})
	}
	t.Notes = "claim reproduced if 1 ≤ minRatio ≤ maxRatio ≤ bound"
	return t
}

// E4LELists measures LE-list lengths across sizes (Lemma 7.6: O(log n)
// w.h.p., including intermediate states).
func E4LELists(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "E4",
		Title:      "LE-list lengths",
		PaperClaim: "all (intermediate) LE lists have length O(log n) w.h.p. (Lemma 7.6)",
		Header:     []string{"n", "maxLen", "avgLen", "ln n", "max/ln n"},
	}
	for _, n := range cfg.sizes(128, 256, 512, 1024) {
		g := graph.RandomConnected(n, 3*n, 8, rng)
		lists, _ := frt.LEListsOnGraphBatch(g, []*frt.Order{frt.NewOrder(n, rng)}, nil)
		maxLen, sum := 0, 0
		for _, l := range lists[0] {
			if l.Len() > maxLen {
				maxLen = l.Len()
			}
			sum += l.Len()
		}
		ln := math.Log(float64(n))
		t.Rows = append(t.Rows, []string{
			d0(n), d0(maxLen), f2(float64(sum) / float64(n)), f2(ln), f2(float64(maxLen) / ln),
		})
	}
	t.Notes = "claim reproduced if max/ln n stays bounded as n grows"
	return t
}

// E5Work compares the work (DAG cost model) and wall time of the oracle
// pipeline against the exact-metric baseline across sizes.
func E5Work(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:    "E5",
		Title: "work scaling: oracle pipeline vs exact-metric FRT",
		PaperClaim: "oracle: Õ(m^{1+ε}) work at polylog depth (Thm 7.9); metric-input " +
			"baselines are Ω(n²) [10]",
		Header: []string{"n", "m", "workOracle", "workExact", "ratio", "msOracle", "msExact"},
	}
	sizes := cfg.sizes(128, 256, 512)
	if cfg.Quick {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		g := graph.RandomConnected(n, 4*n, 8, rng)
		trO := &par.Tracker{}
		t0 := time.Now()
		if _, err := frt.Sample(g, frt.Options{RNG: rng, Tracker: trO}); err != nil {
			panic(err)
		}
		msO := time.Since(t0).Seconds() * 1000
		trE := &par.Tracker{}
		t1 := time.Now()
		if _, err := frt.SampleExact(g, rng, trE); err != nil {
			panic(err)
		}
		msE := time.Since(t1).Seconds() * 1000
		t.Rows = append(t.Rows, []string{
			d0(n), d0(g.M()),
			fmt.Sprintf("%d", trO.Work()), fmt.Sprintf("%d", trE.Work()),
			f2(float64(trO.Work()) / float64(trE.Work())),
			f2(msO), f2(msE),
		})
	}
	t.Notes = "with the √n-hop-set substitution the oracle's work is Õ(m·√n); its growth " +
		"exponent (≈1.5 in n) undercuts the baseline's (≈2) — the crossover sits beyond " +
		"these sizes; a polylog hop set (Cohen [13]) moves it down"
	return t
}

// E6HopSet verifies the hop-set inequality and reports sizes (§1.2 eq. 1.3;
// DESIGN.md substitution 1).
func E6HopSet(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "E6",
		Title:      "hop-set quality",
		PaperClaim: "dist^d(v,w,G′) ≤ (1+ε̂)·dist(v,w,G), distances never shrink (eq 1.3)",
		Header:     []string{"kind", "n", "d", "added", "maxRatio", "minRatio"},
	}
	pairs := 30
	if cfg.Quick {
		pairs = 10
	}
	for _, n := range cfg.sizes(128, 256) {
		g := graph.RandomConnected(n, 3*n, 8, rng)
		sk := hopset.DefaultSkeleton(g, rng, nil)
		maxR, minR := hopset.Measure(g, sk, pairs, rng)
		t.Rows = append(t.Rows, []string{
			"skeleton", d0(n), d0(sk.D), d0(sk.Added), fmt.Sprintf("%.4f", maxR), fmt.Sprintf("%.4f", minR),
		})
		lm := hopset.Landmark(g, 8, rng, nil)
		maxR, minR = hopset.Measure(g, lm, pairs, rng)
		t.Rows = append(t.Rows, []string{
			"landmark", d0(n), d0(lm.D), d0(lm.Added), fmt.Sprintf("%.4f", maxR), fmt.Sprintf("%.4f", minR),
		})
	}
	t.Notes = "skeleton must be exact (maxRatio = 1); landmark trades d = 2 for measured ε̂; minRatio ≥ 1 always"
	return t
}

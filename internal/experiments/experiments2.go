package experiments

import (
	"fmt"
	"math"

	"parmbf/internal/apps/buyatbulk"
	"parmbf/internal/apps/kmedian"
	"parmbf/internal/apps/steiner"
	"parmbf/internal/congest"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/hopset"
	"parmbf/internal/mbf"
	"parmbf/internal/metric"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
	"parmbf/internal/simgraph"
	"parmbf/internal/spanner"
)

// E7Metric measures the approximate-metric constructions of Theorems 6.1
// and 6.2.
func E7Metric(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "E7",
		Title:      "approximate metrics through the oracle",
		PaperClaim: "(1+o(1))-approx metric (Thm 6.1); O(1)-approx at reduced size via spanner (Thm 6.2)",
		Header:     []string{"variant", "n", "m(used)", "guarantee", "maxObserved", "isMetric"},
	}
	for _, n := range cfg.sizes(64, 128) {
		g := graph.RandomConnected(n, 5*n, 6, rng)
		exact := graph.APSPDijkstra(g)
		observe := func(m *graph.Matrix) float64 {
			worst := 1.0
			for v := 0; v < n; v++ {
				for w := v + 1; w < n; w++ {
					if r := m.At(v, w) / exact.At(v, w); r > worst {
						worst = r
					}
				}
			}
			return worst
		}
		direct, err := metric.Approximate(g, rng, nil)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			"oracle", d0(n), d0(g.M()), f2(direct.MaxRatio), fmt.Sprintf("%.4f", observe(direct.Matrix)),
			fmt.Sprintf("%v", direct.Matrix.IsMetric(1e-6)),
		})
		k := 2
		sp := spanner.Build(g, k, rng, nil)
		sparse, err := metric.Approximate(sp, rng, nil)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("spanner(k=%d)", k), d0(n), d0(sp.M()),
			f2(float64(2*k-1) * sparse.MaxRatio), fmt.Sprintf("%.4f", observe(sparse.Matrix)),
			fmt.Sprintf("%v", sparse.Matrix.IsMetric(1e-6)),
		})
	}
	t.Notes = "claim reproduced if maxObserved ≤ guarantee and both variants are true metrics"
	return t
}

// E8Spanner measures Baswana–Sen size/stretch trade-offs (§6, [8]).
func E8Spanner(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "E8",
		Title:      "Baswana–Sen spanner trade-off",
		PaperClaim: "stretch ≤ 2k−1 with Õ(n^{1+1/k}) edges in expectation [8]",
		Header:     []string{"n", "m", "k", "edges", "n^{1+1/k}", "maxStretch", "bound"},
	}
	n := 128
	if !cfg.Quick {
		n = 256
	}
	g := graph.RandomConnected(n, n*n/8, 6, rng)
	eg := graph.APSPDijkstra(g)
	for _, k := range []int{2, 3, 5} {
		sp := spanner.Build(g, k, rng, nil)
		es := graph.APSPDijkstra(sp)
		worst := 1.0
		for v := 0; v < n; v++ {
			for w := v + 1; w < n; w++ {
				if r := es.At(v, w) / eg.At(v, w); r > worst {
					worst = r
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			d0(n), d0(g.M()), d0(k), d0(sp.M()),
			f2(math.Pow(float64(n), 1+1/float64(k))),
			f2(worst), d0(2*k - 1),
		})
	}
	t.Notes = "claim reproduced if maxStretch ≤ bound and edges track n^{1+1/k}"
	return t
}

// E9Congest compares the round counts of the two distributed algorithms
// (§8, Theorem 8.1).
func E9Congest(cfg Config) *Table {
	t := &Table{
		ID:         "E9",
		Title:      "Congest rounds: Khan et al. vs skeleton algorithm",
		PaperClaim: "Khan: O(SPD·log n) rounds [26]; skeleton: ≈ Õ(√n + D) (§8.3, Thm 8.1)",
		Header:     []string{"graph", "n", "SPD(G)", "D(G)", "roundsKhan", "roundsSkeleton", "winner"},
	}
	type workload struct {
		name string
		g    *graph.Graph
		opts congest.SkeletonOptions
	}
	nPath := 800
	if cfg.Quick {
		nPath = 300
	}
	ws := []workload{
		{"starPath", starPath(nPath), congest.SkeletonOptions{Ell: 150, C: 1.5, SpannerK: 3}},
		{"random", graph.RandomConnected(300, 4000, 4, cfg.rng()), congest.SkeletonOptions{}},
	}
	for _, w := range ws {
		khan := congest.Khan(w.g, par.NewRNG(cfg.Seed+1))
		skel := congest.Skeleton(w.g, par.NewRNG(cfg.Seed+2), w.opts)
		winner := "khan"
		if skel.Rounds < khan.Rounds {
			winner = "skeleton"
		}
		t.Rows = append(t.Rows, []string{
			w.name, d0(w.g.N()), d0(graph.SPDFrom(w.g, 0)), d0(graph.HopDiameter(w.g)),
			d0(khan.Rounds), d0(skel.Rounds), winner,
		})
	}
	t.Notes = "claim reproduced if skeleton wins on the high-SPD/low-D workload and Khan on the low-SPD one"
	return t
}

// starPath is the high-SPD, hop-diameter-2 workload of E9 (see the congest
// tests for the construction rationale).
func starPath(n int) *graph.Graph {
	b := graph.NewBuilder(n + 1)
	for v := 0; v+1 < n; v++ {
		b.Add(graph.Node(v), graph.Node(v+1), 1)
	}
	for v := 0; v < n; v++ {
		b.Add(graph.Node(n), graph.Node(v), float64(2*n))
	}
	return b.Freeze()
}

// E10Zoo demonstrates the MBF-like algorithm collection (§3) and the
// filter-induced work reduction of §2.
func E10Zoo(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "E10",
		Title:      "MBF-like algorithm zoo: filtered vs unfiltered work",
		PaperClaim: "filtering reduces k-SSP work from Θ̃(mn) to Θ̃(mk) without changing outputs (§2, §3)",
		// All min-plus rows (APSP, k-SSP, detection, forest fire) run the
		// sparse frontier engine uniformly, so their work columns compare
		// like with like: the work actually performed, with hop cap h. The
		// widest-path row uses the dense h-iteration engine.
		Header: []string{"algorithm", "n", "work", "vs APSP work", "h (cap)"},
	}
	n := 256
	if cfg.Quick {
		n = 128
	}
	g := graph.RandomConnected(n, 4*n, 8, rng)
	h := 10

	trAPSP := &par.Tracker{}
	mbf.APSP(g, h, trAPSP)
	apspWork := float64(trAPSP.Work())
	row := func(name string, tr *par.Tracker, iters int) {
		t.Rows = append(t.Rows, []string{
			name, d0(n), fmt.Sprintf("%d", tr.Work()), f2(float64(tr.Work()) / apspWork), d0(iters),
		})
	}
	row("APSP (unfiltered)", trAPSP, h)

	trK := &par.Tracker{}
	mbf.KSSP(g, 3, h, trK)
	row("3-SSP (top-k filter)", trK, h)

	trS := &par.Tracker{}
	mbf.SourceDetection(g, func(v graph.Node) bool { return v < 8 }, h, semiring.Inf, 4, trS)
	row("(8src,4)-detection", trS, h)

	trW := &par.Tracker{}
	mbf.APWP(g, h, trW)
	row("all-pairs widest", trW, h)

	trF := &par.Tracker{}
	mbf.ForestFire(g, []graph.Node{0, 1}, 10, trF)
	row("forest fire (d=10)", trF, 0)

	t.Notes = "claim reproduced if the filtered variants' work is a small fraction of APSP's; " +
		"work is measured on the sparse fixpoint engine (h is the hop cap, not necessarily the iterations run)"
	return t
}

// E11KMedian measures the k-median approximation (Theorem 9.2).
func E11KMedian(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "E11",
		Title:      "k-median on graphs",
		PaperClaim: "expected O(log k)-approximation in polylog depth (Thm 9.2)",
		Header:     []string{"graph", "n", "k", "cost", "baseline", "ratio", "baselineKind"},
	}
	// Small instance vs brute-force optimum.
	gSmall := graph.RandomConnected(22, 55, 6, rng)
	opt := kmedian.BruteForce(gSmall, 3)
	res, err := kmedian.Solve(gSmall, 3, kmedian.Options{RNG: rng, Trees: 5})
	if err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows, []string{
		"random", d0(22), d0(3), f2(res.Cost), f2(opt.Cost), f2(res.Cost / opt.Cost), "bruteforce-opt",
	})
	if !cfg.Quick {
		// Larger instance vs local search.
		gBig := graph.Clustered(5, 40, 300, rng)
		ls := kmedian.LocalSearch(gBig, 5, rng, 30)
		res2, err := kmedian.Solve(gBig, 5, kmedian.Options{RNG: rng, Trees: 5})
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			"clustered", d0(gBig.N()), d0(5), f2(res2.Cost), f2(ls.Cost), f2(res2.Cost / ls.Cost), "localsearch(3+ε)",
		})
	}
	t.Notes = "claim reproduced if ratios stay in low single digits (log k ≤ 2 here)"
	return t
}

// E12BuyAtBulk measures the buy-at-bulk approximation (Theorem 10.2).
func E12BuyAtBulk(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "E12",
		Title:      "buy-at-bulk network design",
		PaperClaim: "expected O(log n)-approximation (Thm 10.2)",
		Header:     []string{"graph", "n", "demands", "treeCost", "directCost", "lowerBound", "cost/LB"},
	}
	cables := []buyatbulk.CableType{
		{Capacity: 1, Cost: 1}, {Capacity: 10, Cost: 4}, {Capacity: 100, Cost: 12},
	}
	rows := cfg.sizes(6, 8)
	for _, side := range rows {
		g := graph.GridGraph(side, side, 2, rng)
		n := g.N()
		var demands []buyatbulk.Demand
		for i := 0; i < 2*side; i++ {
			demands = append(demands, buyatbulk.Demand{
				S:      graph.Node(rng.Intn(side)),
				T:      graph.Node(n - 1 - rng.Intn(side)),
				Amount: float64(1 + rng.Intn(20)),
			})
		}
		sol, err := buyatbulk.Solve(g, demands, cables, buyatbulk.Options{RNG: rng})
		if err != nil {
			panic(err)
		}
		direct := buyatbulk.DirectShortestPath(g, demands, cables)
		lb := buyatbulk.LowerBound(g, demands, cables)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("grid-%dx%d", side, side), d0(n), d0(len(demands)),
			f2(sol.Cost), f2(direct.Cost), f2(lb), f2(sol.Cost / lb),
		})
	}
	t.Notes = "claim reproduced if cost/LB stays within a small multiple of ln n (the LB prices everything at bulk rate)"
	return t
}

// A1Filtering quantifies Corollary 2.17: intermediate filtering changes
// work, never outputs.
func A1Filtering(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "A1",
		Title:      "ablation: intermediate filtering on vs off",
		PaperClaim: "r^V ∼ id: filtering any intermediate state never changes the output (Cor 2.17)",
		Header:     []string{"n", "h", "k", "workFiltered", "workUnfiltered", "saving", "outputsEqual"},
	}
	n, h, k := 192, 8, 3
	if cfg.Quick {
		n = 96
	}
	g := graph.RandomConnected(n, 4*n, 8, rng)
	filter := semiring.TopKFilter(k, semiring.Inf, nil)

	// Both arms run the dense engine explicitly (zoo.SourceDetection now
	// rides the sparse fixpoint engine, whose frontier savings would be
	// conflated with the filtering effect this ablation isolates): the
	// saving column measures Corollary 2.17 alone.
	trF := &par.Tracker{}
	frunner := &mbf.Runner[float64, semiring.DistMap]{
		Graph:         g,
		Module:        semiring.DistMapModule{},
		Filter:        filter,
		FilterInPlace: semiring.TopKFilterInPlace(k, semiring.Inf, nil),
		Weight:        mbf.MinPlusWeight,
		Size:          func(m semiring.DistMap) int { return m.Len() + 1 },
		Tracker:       trF,
	}
	filtered := frunner.Run(frt.InitialStates(n), h)

	trU := &par.Tracker{}
	runner := &mbf.Runner[float64, semiring.DistMap]{
		Graph:   g,
		Module:  semiring.DistMapModule{},
		Weight:  mbf.MinPlusWeight,
		Size:    func(m semiring.DistMap) int { return m.Len() + 1 },
		Tracker: trU,
	}
	unfiltered := runner.Run(frt.InitialStates(n), h)

	equal := true
	mod := semiring.DistMapModule{}
	for v := range filtered {
		if !mod.Equal(filtered[v], filter(unfiltered[v])) {
			equal = false
		}
	}
	t.Rows = append(t.Rows, []string{
		d0(n), d0(h), d0(k),
		fmt.Sprintf("%d", trF.Work()), fmt.Sprintf("%d", trU.Work()),
		fmt.Sprintf("%.1f×", float64(trU.Work())/float64(trF.Work())),
		fmt.Sprintf("%v", equal),
	})
	t.Notes = "claim reproduced if outputsEqual and the saving factor is large"
	return t
}

// A2LevelPenalty measures the effect of H's level penalty (the (1+ε̂)^{Λ−λ}
// factor that Lemmas 4.3/4.4 rely on) using the approximate landmark hop
// set, where d-hop distances genuinely differ from exact ones.
func A2LevelPenalty(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "A2",
		Title:      "ablation: level penalty of H on vs off",
		PaperClaim: "the penalty makes high levels attractive, bounding SPD(H) (Lemmas 4.3/4.4)",
		Header:     []string{"penalty", "n", "SPD(H)", "maxDistRatio"},
	}
	n := 128
	if cfg.Quick {
		n = 96
	}
	g := graph.RandomConnected(n, 3*n, 6, rng)
	hs := hopset.Landmark(g, 4, rng, nil)
	eg := graph.APSPDijkstra(g)
	for _, penalty := range []bool{true, false} {
		epsHat := 0.0 // default penalty
		if !penalty {
			epsHat = -1 // disabled (ablation)
		}
		h := simgraph.Build(hs, epsHat, rng)
		hg := h.Materialize()
		eh := graph.APSPDijkstra(hg)
		worst := 1.0
		for v := 0; v < n; v++ {
			for w := v + 1; w < n; w++ {
				if r := eh.At(v, w) / eg.At(v, w); r > worst {
					worst = r
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%v", penalty), d0(n), d0(graph.SPD(hg)), fmt.Sprintf("%.4f", worst),
		})
	}
	t.Notes = "the penalty costs a little distance slack and buys the w.h.p. SPD bound; " +
		"on benign hop sets (near-metric d-hop distances) the penalty-free variant is also " +
		"shallow — the comparison is recorded honestly rather than tuned"
	return t
}

// A3HopSetChoice compares the sampling pipeline across hop-set stages.
func A3HopSetChoice(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "A3",
		Title:      "ablation: hop-set choice in the pipeline",
		PaperClaim: "the pipeline is parameterised by any (d, ε̂)-hop set (Thm 7.9)",
		Header:     []string{"hopset", "n", "d", "oracleIters", "work", "maxAvgStretch"},
	}
	n := 128
	if cfg.Quick {
		n = 96
	}
	g := graph.RandomConnected(n, 3*n, 6, rng)
	trees, pairs := 4, 20
	if cfg.Quick {
		trees, pairs = 2, 10
	}
	for _, kind := range []struct {
		name string
		k    frt.HopSetKind
	}{{"skeleton", frt.HopSetSkeleton}, {"landmark", frt.HopSetLandmark}, {"none", frt.HopSetNone}} {
		tr := &par.Tracker{}
		var iters, d int
		stats, err := frt.MeasureStretch(g, func() (*frt.Embedding, error) {
			e, err := frt.NewEmbedder(g, frt.Options{RNG: rng, HopSet: kind.k, Tracker: tr})
			if err != nil {
				return nil, err
			}
			emb, err := e.Sample()
			if err == nil {
				iters, d = emb.Iterations, e.H().Hop.D
			}
			return emb, err
		}, trees, pairs, rng)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			kind.name, d0(n), d0(d), d0(iters), fmt.Sprintf("%d", tr.Work()), f2(stats.MaxAvgStretch),
		})
	}
	t.Notes = "skeleton keeps stretch near the direct pipeline; none pays d = n−1 inside the oracle"
	return t
}

// A4SpannerPre measures the spanner preprocessing trade-off of
// Corollary 7.11: less work, more stretch.
func A4SpannerPre(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "A4",
		Title:      "ablation: spanner preprocessing before embedding",
		PaperClaim: "work O(m + n^{1+1/k+ε}) at stretch O(k·log n) (Cor 7.11)",
		Header:     []string{"variant", "n", "m(used)", "work", "maxAvgStretch"},
	}
	n := 128
	if cfg.Quick {
		n = 96
	}
	g := graph.RandomConnected(n, n*n/10, 5, rng)
	trees, pairs := 4, 20
	if cfg.Quick {
		trees, pairs = 2, 10
	}
	run := func(name string, used *graph.Graph) {
		tr := &par.Tracker{}
		stats, err := frt.MeasureStretch(g, func() (*frt.Embedding, error) {
			return frt.Sample(used, frt.Options{RNG: rng, Tracker: tr})
		}, trees, pairs, rng)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			name, d0(n), d0(used.M()), fmt.Sprintf("%d", tr.Work()), f2(stats.MaxAvgStretch),
		})
	}
	run("direct", g)
	sp := spanner.Build(g, 2, rng, nil)
	run("3-spanner first", sp)
	t.Notes = "stretch is measured against the ORIGINAL graph's metric; the spanner variant " +
		"works on fewer edges and pays up to 3× more stretch"
	return t
}

// X1Steiner measures the extension application: Steiner trees via the
// embedding vs the classic 2-approximation (metric-closure MST). Not a
// paper table — the introduction motivates Steiner-type problems as FRT
// consumers; recorded as an extension experiment.
func X1Steiner(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "X1",
		Title:      "extension: Steiner tree via FRT embedding",
		PaperClaim: "Steiner-type problems are prime consumers of tree embeddings (§1); expected O(log n)-approx by linearity",
		Header:     []string{"graph", "n", "terminals", "viaTree", "closureMST(2-approx)", "LB", "tree/LB"},
	}
	for _, side := range cfg.sizes(8, 12) {
		g := graph.GridGraph(side, side, 3, rng)
		n := g.N()
		terms := []graph.Node{0, graph.Node(side - 1), graph.Node(n - side), graph.Node(n - 1), graph.Node(n / 2)}
		best := -1.0
		for trial := 0; trial < 3; trial++ {
			r, err := steiner.Solve(g, terms, steiner.Options{RNG: rng})
			if err != nil {
				panic(err)
			}
			if best < 0 || r.Weight < best {
				best = r.Weight
			}
		}
		base, err := steiner.MetricClosureMST(g, terms)
		if err != nil {
			panic(err)
		}
		lb, err := steiner.LowerBound(g, terms)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("grid-%dx%d", side, side), d0(n), d0(len(terms)),
			f2(best), f2(base.Weight), f2(lb), f2(best / lb),
		})
	}
	t.Notes = "claim reproduced if tree/LB stays within a small multiple of ln n (the 2-approx baseline sits at ≤ 2×LB by construction)"
	return t
}

package main

import (
	"context"
	"runtime"
	"time"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/hopset"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
	"parmbf/internal/simgraph"
)

// runEmbed is the library path and the only workload where the paper's
// oracle runs: each draw generates a fresh graph, builds the shared
// pipeline (hop set and H) in NewEmbedder, then times SampleEnsemble(K)
// plus Index. A fresh graph per draw averages graph-to-graph variation
// inside one run, so a run's median is steady across seeds.
func runEmbed(ctx context.Context, cfg *config, tr *tracer) (*result, error) {
	sz := cfg.sz
	res := newResult()
	base := par.NewRNG(cfg.seed)
	var setups, builds, reads, reads99, stretchT, stretchMin []float64
	rep := &embedReplay{}
	t0 := time.Now()
	for draw := 0; draw < sz.MinEmbedDraws || !deadline(ctx, cfg, t0); draw++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rng := base.Split()
		replayRNG := *rng // the traced replay consumes the same randomness
		checkRNG := base.Split()

		ts := time.Now()
		g := genGraph(sz.EmbedN, rng)
		e, err := frt.NewEmbedder(g, frt.Options{RNG: rng})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(ts).Seconds())

		tb := time.Now()
		ens, err := e.SampleEnsemble(sz.EmbedK)
		if err != nil {
			return nil, err
		}
		idx, err := ens.Index()
		if err != nil {
			return nil, err
		}
		build := time.Since(tb)
		builds = append(builds, ms(build))
		res.attempted++

		p90, p99 := timeReads(idx, sz.EmbedN, sz.Batch, sz.ReadsPerEmbed, checkRNG)
		reads, reads99 = append(reads, p90), append(reads99, p99)
		ep := newEvalPairs(g, sz.CheckPairs, checkRNG)
		st, sm, viol := ep.stretch(ens.Trees, idx)
		stretchT, stretchMin = append(stretchT, st), append(stretchMin, sm)
		res.check(viol == 0, "embed draw %d: %d dominance violations", draw, viol)

		if tr != nil {
			if err := rep.draw(tr, res, sz, &replayRNG, ens, draw); err != nil {
				return nil, err
			}
		}
	}
	// A draw's cost jumps with its trees' iteration counts, so single draws
	// are multimodal and a quantile of them flips between modes from run to
	// run; a quantile over rounds of several draws does not.
	var rounds []float64
	for r := 0; r+sz.EmbedRound <= len(builds); r += sz.EmbedRound {
		rounds = append(rounds, mean(builds[r:r+sz.EmbedRound]))
	}
	draws := len(builds)
	res.set("setup_s", median(setups), "s", draws)
	round := calmLow(rounds)
	res.set("op_p50_ms", round, "ms", len(rounds))
	res.set("ops_per_s", float64(sz.EmbedK)*1000/round, "1/s", len(rounds))
	res.set("stretch_mean", mean(stretchT), "ratio", draws*sz.CheckPairs*sz.EmbedK)
	res.set("stretch_min_mean", mean(stretchMin), "ratio", draws*sz.CheckPairs)
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, "MB", 1)
	res.detail["draws"] = draws
	res.detail["read_p90_ms"] = calmLow(reads)
	res.detail["read_p99_ms"] = calmLow(reads99)
	res.detail["draw_p50_ms"] = median(builds)
	if tr != nil {
		rep.report(res, builds)
	}
	return res, nil
}

// timeReads times count in-process MinBatch calls of batch random pairs on
// idx and returns their p90 and p99 in milliseconds.
func timeReads(idx *frt.OracleIndex, n, batch, count int, rng *par.RNG) (float64, float64) {
	pairs := randomPairs(n, batch, rng)
	out := make([]float64, 0, batch)
	lat := make([]float64, count)
	for i := range lat {
		t := time.Now()
		out = idx.MinBatch(pairs, out[:0])
		lat[i] = ms(time.Since(t))
	}
	return quantile(lat, 0.9), quantile(lat, 0.99)
}

// embedReplay accumulates the traced stage-by-stage replays of one run.
type embedReplay struct {
	gen, hop, sim, fixSum, fixMax, buildTree, index, wall, eff []float64
	minBatch, medBatch                                         []float64
	first                                                      map[string]float64
}

// draw replays one draw stage by stage from the draw's own randomness —
// graph, hop set, H, then per tree (in parallel, as SampleEmbeddings runs
// them) order, β, oracle fixpoint and BuildTree, then the index — inside
// spans, and checks that the trees are byte-identical to the untimed
// Embedder.SampleEnsemble result want.
func (rep *embedReplay) draw(tr *tracer, res *result, sz sizes, rng *par.RNG, want *frt.Ensemble, draw int) error {
	n, k := sz.EmbedN, sz.EmbedK
	root := tr.start(nil, tr.request(), "bench", "embed.draw")
	defer tr.end(root)
	var (
		g  *graph.Graph
		hs *hopset.Result
		h  *simgraph.H
	)
	hopTracker := &par.Tracker{}
	rep.gen = append(rep.gen, tr.do(root, "graph", "graph.gen", func(*span) { g = genGraph(n, rng) }).Seconds())
	rep.hop = append(rep.hop, tr.do(root, "hopset", "hopset.build", func(*span) {
		hs = hopset.DefaultSkeleton(g, rng, hopTracker)
	}).Seconds())
	rep.sim = append(rep.sim, tr.do(root, "simgraph", "simgraph.build", func(*span) {
		h = simgraph.Build(hs, 0, rng)
	}).Seconds())

	build := tr.start(root, 0, "bench", "embed.build")
	rngs := rng.SplitN(k)
	trees := make([]*frt.Tree, k)
	lists := make([][]semiring.DistMap, k)
	iters := make([]int, k)
	fix := make([]time.Duration, k)
	trackers := make([]*par.Tracker, k)
	errs := make([]error, k)
	tp := time.Now()
	par.ForEach(k, func(i int) {
		order := frt.NewOrder(n, rngs[i])
		beta := frt.RandomBeta(rngs[i])
		trackers[i] = &par.Tracker{}
		fix[i] = tr.do(build, "simgraph", "oracle.fixpoint", func(*span) {
			o := simgraph.NewOracle(h, trackers[i])
			o.FilterInPlace = order.FilterInPlace()
			lists[i], iters[i] = o.RunToFixpoint(frt.InitialStates(n), order.Filter(), simgraph.MaxIters(n))
		})
		bt := tr.do(build, "frt", "frt.buildtree", func(*span) {
			trees[i], errs[i] = frt.BuildTree(lists[i], order, beta)
		})
		tr.mu.Lock()
		rep.buildTree = append(rep.buildTree, ms(bt))
		tr.mu.Unlock()
	})
	parallel := time.Since(tp)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	ens := &frt.Ensemble{Trees: trees}
	var idx *frt.OracleIndex
	var err error
	rep.index = append(rep.index, ms(tr.do(build, "frt", "index.build", func(*span) { idx, err = ens.Index() })))
	if err != nil {
		return err
	}
	tr.end(build)
	rep.wall = append(rep.wall, ms(build.dur()))
	res.check(tr.coverage(build) >= 0.95, "embed draw %d: stage spans cover %.3f of the traced build", draw, tr.coverage(build))

	var sumFix, maxFix time.Duration
	for _, d := range fix {
		sumFix += d
		maxFix = max(maxFix, d)
	}
	rep.fixSum = append(rep.fixSum, sumFix.Seconds())
	rep.fixMax = append(rep.fixMax, maxFix.Seconds())
	rep.eff = append(rep.eff, sumFix.Seconds()/(parallel.Seconds()*float64(min(k, runtime.GOMAXPROCS(0)))))

	pairs := randomPairs(n, sz.Batch, rng)
	rep.minBatch = append(rep.minBatch, tr.do(root, "frt", "index.minbatch", func(*span) { idx.MinBatch(pairs, nil) }).Seconds()*1e6)
	rep.medBatch = append(rep.medBatch, tr.do(root, "frt", "index.medianbatch", func(*span) { idx.MedianBatch(pairs, nil) }).Seconds()*1e6)

	same, err := sameSnapshot(g, ens, want)
	if err != nil {
		return err
	}
	res.check(same, "embed draw %d: stage replay snapshot differs from Embedder.SampleEnsemble", draw)
	maxIt := 0
	for i, it := range iters {
		res.check(it <= simgraph.MaxIters(n), "embed draw %d tree %d: %d oracle iterations > MaxIters %d",
			draw, i, it, simgraph.MaxIters(n))
		maxIt = max(maxIt, it)
	}

	if rep.first == nil {
		// Counts come from the first draw, which every run makes, so they
		// repeat exactly at a fixed seed.
		var work, depth int64
		for _, t := range trackers {
			work += t.Work()
			depth = max(depth, t.Depth())
		}
		lenMean, lenMax := leLengths(lists)
		rep.first = map[string]float64{
			"hopset.arcs": float64(hs.Added), "oracle.iters": float64(maxIt),
			"oracle.max_iters": float64(simgraph.MaxIters(n)),
			"oracle.work":      float64(work), "oracle.depth": float64(depth),
			"le.len_mean": lenMean, "le.len_max": lenMax,
		}
	}
	return nil
}

// report turns the replays into per-layer metrics. builds are the untraced
// build times of the same draws, so the tracing overhead is the traced
// build's excess over them.
func (rep *embedReplay) report(res *result, builds []float64) {
	draws := len(rep.wall)
	res.setLayer("graph.gen_s", median(rep.gen), "s", draws)
	res.setLayer("hopset.build_s", median(rep.hop), "s", draws)
	res.setLayer("simgraph.build_s", median(rep.sim), "s", draws)
	res.setLayer("oracle.fixpoint_s", median(rep.fixSum), "s", draws)
	res.setLayer("oracle.fixpoint_max_s", median(rep.fixMax), "s", draws)
	res.setLayer("frt.buildtree_ms", median(rep.buildTree), "ms", len(rep.buildTree))
	res.setLayer("index.build_ms", median(rep.index), "ms", draws)
	res.setLayer("par.efficiency", median(rep.eff), "ratio", draws)
	res.setLayer("index.minbatch_us", median(rep.minBatch), "us", draws)
	res.setLayer("index.medianbatch_us", median(rep.medBatch), "us", draws)
	for name, v := range rep.first {
		res.setLayer(name, v, "count", 1)
	}
	untraced := median(builds)
	res.setLayer("trace.overhead_pct", 100*(median(rep.wall)-untraced)/untraced, "%", draws)
	res.detail["traced_build_ms"] = median(rep.wall)
}

// leLengths returns the mean and maximum LE-list length over every node of
// every tree.
func leLengths(lists [][]semiring.DistMap) (float64, float64) {
	var total, count, longest int
	for _, tree := range lists {
		for _, l := range tree {
			total += l.Len()
			count++
			longest = max(longest, l.Len())
		}
	}
	if count == 0 {
		return 0, 0
	}
	return float64(total) / float64(count), float64(longest)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

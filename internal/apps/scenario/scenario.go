// Package scenario holds the entry-point conventions shared by every
// application scenario (kmedian, buyatbulk, steiner, routing): one Options
// shape with an ensemble injection point. A standalone caller sets just RNG
// and the scenario builds its own hop-set → H → oracle pipeline; a daemon
// samples the ensemble once and injects it, so every scenario answers from
// the same trees and the same oracle index.
package scenario

import (
	"fmt"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// Options configures an application scenario. The zero value is invalid:
// every scenario needs either an RNG (to sample trees, and for its own
// randomized stages) or an injected ensemble.
type Options struct {
	// RNG is the randomness source. Required unless Ensemble is injected
	// and the scenario has no randomized stage of its own.
	RNG *par.RNG
	// Trees is the number of FRT trees the scenario draws — or, with an
	// injected Ensemble, visits — in its per-tree loop; 0 selects the
	// scenario's default (all trees of an injected ensemble).
	Trees int
	// FirstTree is the offset of the first visited tree in an injected
	// Ensemble — the router's per-tree sharding hook: shard i solves trees
	// [FirstTree, FirstTree+Trees) and the router merges by reported cost.
	// Ignored when trees are freshly sampled.
	FirstTree int
	// Ensemble, if non-nil, is used directly — no sampling happens.
	Ensemble *frt.Ensemble
	// Tracker, if non-nil, is charged the work/depth of the scenario's
	// internal phases.
	Tracker *par.Tracker
}

// Resolve returns the ensemble the scenario should run on: the injected one;
// otherwise Trees (or defaultTrees) fresh trees drawn from a new embedder
// built on g.
func (o Options) Resolve(g *graph.Graph, defaultTrees int) (*frt.Ensemble, error) {
	if o.Ensemble != nil {
		if len(o.Ensemble.Trees) == 0 {
			return nil, fmt.Errorf("scenario: injected ensemble has no trees")
		}
		return o.Ensemble, nil
	}
	trees := o.Trees
	if trees <= 0 {
		trees = defaultTrees
	}
	if o.RNG == nil {
		return nil, fmt.Errorf("scenario: Options.RNG is required unless an ensemble is injected")
	}
	emb, err := frt.NewEmbedder(g, frt.Options{RNG: o.RNG, Tracker: o.Tracker})
	if err != nil {
		return nil, err
	}
	return emb.SampleEnsemble(trees)
}

// Visit returns the subrange of ens.Trees the scenario's per-tree loop
// should cover; see Span.
func (o Options) Visit(ens *frt.Ensemble) ([]*frt.Tree, error) {
	lo, hi, err := o.Span(len(ens.Trees))
	if err != nil {
		return nil, err
	}
	return ens.Trees[lo:hi], nil
}

// Span returns the bounds of the per-tree loop over k trees:
// [FirstTree, FirstTree+Trees) clamped to k, all k trees when Trees is 0. An
// out-of-range FirstTree or a negative Trees is an error (a sharded
// deployment asking for trees the worker does not hold is a caller bug, not
// something to silently clamp to empty or widen to everything).
func (o Options) Span(k int) (lo, hi int, err error) {
	lo = o.FirstTree
	if lo < 0 || lo >= k {
		if lo == 0 {
			return 0, 0, fmt.Errorf("scenario: ensemble has no trees")
		}
		return 0, 0, fmt.Errorf("scenario: FirstTree=%d out of range for %d trees", lo, k)
	}
	if o.Trees < 0 {
		return 0, 0, fmt.Errorf("scenario: Trees=%d is negative", o.Trees)
	}
	hi = k
	// Compared without adding: lo+Trees overflows for Trees near MaxInt.
	if o.Trees > 0 && o.Trees < hi-lo {
		hi = lo + o.Trees
	}
	return lo, hi, nil
}

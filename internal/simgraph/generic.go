package simgraph

import (
	"sync/atomic"

	"parmbf/internal/graph"
	"parmbf/internal/mbf"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// This file generalises the oracle beyond the distance-map semimodule,
// realising Remark 5.3 of the paper: Theorem 5.2 is stated for D for
// concreteness, but the decomposition A_H = ⊕_λ P_λ A_λ^d P_λ works for any
// zero-preserving semimodule whose aggregation the caller can supply. The
// generic oracle needs three algebra-specific ingredients:
//
//   - Weight: how a level-scaled edge weight becomes a semiring element
//     (the entries of A_λ);
//   - the Module and Filter of the MBF-like algorithm;
//   - nothing else — projection P_λ is "reset to ⊥", and cross-level
//     aggregation is the module's ⊕.
//
// The distance-map Oracle of oracle-fame is the M = D specialisation; the
// tests validate the generic version with the routing semimodule (next-hop
// tables on H). Unlike Oracle.RunToFixpoint, GenericOracle.RunToFixpoint
// runs every level cold in every iteration: it has no caller outside tests.
type GenericOracle[S, M any] struct {
	H      *H
	Module semiring.Semimodule[S, M]
	Filter semiring.Filter[M]
	// FilterInPlace, if non-nil, must compute the same function as Filter
	// but may reuse its argument's storage; it is forwarded to the per-level
	// runners, which apply it only on the aggregation fast path (see
	// mbf.Runner.FilterInPlace).
	FilterInPlace semiring.Filter[M]
	// Weight converts a level-scaled graph edge weight into the A_λ entry
	// for the arc from→to.
	Weight  func(from, to graph.Node, scaled float64) S
	Tracker *par.Tracker

	// runners holds one lazily built per-level runner, kept alive across
	// oracle iterations so the sparse engine's pooled scratch recycles
	// (mirroring the distance-map Oracle); per-call fields are refreshed
	// on every use and the cache is keyed to runnersH so swapping H
	// rebuilds it. Like Oracle, a GenericOracle is safe for sequential
	// reuse but not for concurrent use.
	runners  []*mbf.Runner[S, M]
	runnersH *H
}

func (o *GenericOracle[S, M]) filter(x M) M {
	if o.Filter == nil {
		return x
	}
	return o.Filter(x)
}

// project applies P_λ, resetting entries below level lambda to ⊥.
func (o *GenericOracle[S, M]) project(x []M, lambda int) []M {
	if lambda == 0 {
		return x
	}
	out := make([]M, len(x))
	for v := range x {
		if o.H.Level[v] >= lambda {
			out[v] = x[v]
		} else {
			out[v] = o.Module.Zero()
		}
	}
	return out
}

// Iterate simulates one MBF-like iteration on H over the generic module
// (Equation 5.9).
func (o *GenericOracle[S, M]) Iterate(x []M) []M {
	out, _ := o.iterate(x, false)
	return out
}

// iterate is Iterate plus optional change detection fused into the
// cross-level aggregation pass (short-circuiting once any node differs),
// mirroring the distance-map oracle.
func (o *GenericOracle[S, M]) iterate(x []M, detect bool) ([]M, bool) {
	h := o.H
	gp := h.Hop.Graph
	perLevel := make([][]M, h.Lambda+1)
	if o.runnersH != h {
		o.runners = make([]*mbf.Runner[S, M], h.Lambda+1)
		for lambda := range o.runners {
			scale := h.scale[lambda]
			o.runners[lambda] = &mbf.Runner[S, M]{
				Graph: gp,
				// The closure reads o.Weight at call time, so swapping the
				// oracle's Weight between runs stays visible.
				Weight: func(from, to graph.Node, w float64) S {
					return o.Weight(from, to, scale*w)
				},
			}
		}
		o.runnersH = h
	}
	for lambda := 0; lambda <= h.Lambda; lambda++ {
		runner := o.runners[lambda]
		runner.Module = o.Module
		runner.Filter = o.Filter
		runner.FilterInPlace = o.FilterInPlace
		runner.Tracker = o.Tracker
		y := o.project(x, lambda)
		// (r^V A_λ)^d y via the sparse frontier engine: identical to d dense
		// iterations (stable states stay stable), cheaper whenever the level
		// reaches its fixpoint before the hop bound d.
		y, _ = runner.RunToFixpoint(y, h.Hop.D)
		perLevel[lambda] = o.project(y, lambda)
	}
	out := make([]M, len(x))
	var diff atomic.Bool
	par.ForEach(len(x), func(v int) {
		acc := o.Module.Zero()
		for lambda := 0; lambda <= h.Lambda; lambda++ {
			acc = o.Module.Add(acc, perLevel[lambda][v])
		}
		out[v] = o.filter(acc)
		if detect && !diff.Load() && !o.Module.Equal(out[v], x[v]) {
			diff.Store(true)
		}
	})
	return out, diff.Load()
}

// Run performs iters iterations on H starting from x0.
func (o *GenericOracle[S, M]) Run(x0 []M, iters int) []M {
	x := make([]M, len(x0))
	for i, s := range x0 {
		x[i] = o.filter(s)
	}
	for i := 0; i < iters; i++ {
		x = o.Iterate(x)
	}
	return x
}

// RunToFixpoint iterates until the states stop changing or maxIters is hit,
// returning the states and the number of iterations performed — including
// the final iteration that confirms the fixpoint.
func (o *GenericOracle[S, M]) RunToFixpoint(x0 []M, maxIters int) ([]M, int) {
	x := make([]M, len(x0))
	for i, s := range x0 {
		x[i] = o.filter(s)
	}
	for it := 1; it <= maxIters; it++ {
		next, changed := o.iterate(x, true)
		x = next
		if !changed {
			return x, it
		}
	}
	return x, maxIters
}

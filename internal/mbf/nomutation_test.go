package mbf

import (
	"math"
	"slices"
	"testing"

	"parmbf/internal/semiring"
)

// sharedInputs returns an initial state vector whose maps share storage as
// callers' vectors do: the singletons of one SingletonStates block, with one
// map placed at every seventh node instead. The map is neither a staircase
// nor within top-2, so both filters below cut it. watched lists every map
// that storage backs: the whole block and the shared map.
func sharedInputs(n int) (x0, watched []semiring.DistMap) {
	block := semiring.SingletonStates(n)
	m := semiring.FromEntries(semiring.Entry{Node: 1, Dist: 3}, semiring.Entry{Node: 4, Dist: 5}, semiring.Entry{Node: 7, Dist: 0.5})
	x0 = slices.Clone(block)
	for v := 0; v < n; v += 7 {
		x0[v] = m
	}
	return x0, append(block, m)
}

// deepCopy clones every map of xs.
func deepCopy(xs []semiring.DistMap) []semiring.DistMap {
	out := make([]semiring.DistMap, len(xs))
	for i, x := range xs {
		out[i] = x.Clone()
	}
	return out
}

// checkUnchanged fails t unless every map of watched still equals, bitwise,
// its copy in before.
func checkUnchanged(t *testing.T, what string, watched, before []semiring.DistMap) {
	t.Helper()
	for i := range watched {
		if !slices.EqualFunc(watched[i].Entries(), before[i].Entries(), func(a, b semiring.Entry) bool {
			return a.Node == b.Node && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
		}) {
			t.Fatalf("%s wrote input map %d: %v, was %v", what, i, watched[i], before[i])
		}
	}
}

// TestEnginesDoNotMutateInputs pins the aliasing contract the engine keeps
// with pure filters: RunToFixpoint, a Stepper and Run, under a top-k filter
// and under Staircase through StaircaseModule, leave every map of a
// storage-sharing input vector bitwise unchanged.
func TestEnginesDoNotMutateInputs(t *testing.T) {
	g := diffGraph(21)
	n := g.N()
	for _, cfg := range []struct {
		name   string
		module semiring.Semimodule[float64, semiring.DistMap]
		filter semiring.Filter[semiring.DistMap]
	}{
		{"top2", semiring.DistMapModule{}, semiring.TopKFilter(2, semiring.Inf, nil)},
		{"staircase-module", semiring.StaircaseModule{}, semiring.Staircase},
	} {
		r := &Runner[float64, semiring.DistMap]{Graph: g, Module: cfg.module, Filter: cfg.filter, Weight: MinPlusWeight}
		for _, run := range []struct {
			name string
			run  func(x0 []semiring.DistMap)
		}{
			{"RunToFixpoint", func(x0 []semiring.DistMap) { r.RunToFixpoint(x0, n) }},
			{"Stepper", func(x0 []semiring.DistMap) {
				st := r.NewStepper(x0)
				for st.Step() {
				}
				st.Release()
			}},
			{"Run", func(x0 []semiring.DistMap) { r.Run(x0, 6) }},
		} {
			x0, watched := sharedInputs(n)
			before := deepCopy(watched)
			run.run(x0)
			checkUnchanged(t, cfg.name+"/"+run.name, watched, before)
		}
	}
}

package semiring_test

// The algebraic-law tests: every algebra and filter of the package against
// the checkers of semiringtest, which imports semiring and so can only be
// reached from this external test package.

import (
	"math/rand"
	"testing"

	"parmbf/internal/semiring"
	"parmbf/internal/semiring/semiringtest"
)

// scalarSamples are semiring elements exercising the interesting regions of
// the float-valued semirings: identities, finite values, and ∞.
var scalarSamples = []float64{0, 1, 0.5, 2.25, 7, 1000, semiring.Inf}

func TestMinPlusSemiringLaws(t *testing.T) {
	if err := semiringtest.CheckSemiringLaws[float64](semiring.MinPlus{}, scalarSamples); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMinSemiringLaws(t *testing.T) {
	if err := semiringtest.CheckSemiringLaws[float64](semiring.MaxMin{}, scalarSamples); err != nil {
		t.Fatal(err)
	}
}

func TestBooleanSemiringLaws(t *testing.T) {
	if err := semiringtest.CheckSemiringLaws[bool](semiring.Boolean{}, []bool{false, true}); err != nil {
		t.Fatal(err)
	}
}

func TestMinPlusSelfModuleLaws(t *testing.T) {
	err := semiringtest.CheckSemimoduleLaws[float64, float64](semiring.MinPlus{}, semiring.MinPlusSelf{}, scalarSamples, scalarSamples)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxMinSelfModuleLaws(t *testing.T) {
	err := semiringtest.CheckSemimoduleLaws[float64, float64](semiring.MaxMin{}, semiring.MaxMinSelf{}, scalarSamples, scalarSamples)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistMapModuleLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	elems := []semiring.DistMap{{}}
	for i := 0; i < 8; i++ {
		elems = append(elems, semiring.RandomDistMap(rng, 6))
	}
	err := semiringtest.CheckSemimoduleLaws[float64, semiring.DistMap](semiring.MinPlus{}, semiring.DistMapModule{}, scalarSamples, elems)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTopKFilterIsCongruence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	elems := []semiring.DistMap{{}}
	for i := 0; i < 10; i++ {
		elems = append(elems, semiring.RandomDistMap(rng, 8))
	}
	r := semiring.TopKFilter(3, semiring.Inf, nil)
	err := semiringtest.CheckFilterCongruence[float64, semiring.DistMap](semiring.DistMapModule{}, r, []float64{0, 1, 5, semiring.Inf}, elems)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoolSetModuleLaws(t *testing.T) {
	elems := [][]semiring.NodeID{nil, {1}, {2, 5}, {1, 2, 5}, {0, 9}}
	err := semiringtest.CheckSemimoduleLaws[bool, []semiring.NodeID](semiring.Boolean{}, semiring.BoolSet{}, []bool{false, true}, elems)
	if err != nil {
		t.Fatal(err)
	}
}

func TestWidthMapModuleLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	elems := []semiring.WidthMap{nil}
	for i := 0; i < 8; i++ {
		n := rng.Intn(6)
		m := make(semiring.WidthMap, 0, n)
		node := semiring.NodeID(0)
		for j := 0; j < n; j++ {
			node += semiring.NodeID(1 + rng.Intn(3))
			m = append(m, semiring.WidthEntry{Node: node, Width: 1 + float64(rng.Intn(50))})
		}
		elems = append(elems, m)
	}
	err := semiringtest.CheckSemimoduleLaws[float64, semiring.WidthMap](semiring.MaxMin{}, semiring.WidthMapModule{}, scalarSamples, elems)
	if err != nil {
		t.Fatal(err)
	}
}

func pathSamples() []semiring.PathSet {
	return []semiring.PathSet{
		nil,
		{semiring.MakePath(1, 2): 3},
		{semiring.MakePath(2, 3): 1, semiring.MakePath(2, 4): 2},
		{semiring.MakePath(1, 2): 5, semiring.MakePath(3, 4): 1},
		{semiring.MakePath(1, 2, 3): 4},
		semiring.AllPaths{}.One(),
	}
}

func TestAllPathsSemiringLaws(t *testing.T) {
	if err := semiringtest.CheckSemiringLaws[semiring.PathSet](semiring.AllPaths{}, pathSamples()); err != nil {
		t.Fatal(err)
	}
}

func TestAllPathsSelfModuleLaws(t *testing.T) {
	err := semiringtest.CheckSemimoduleLaws[semiring.PathSet, semiring.PathSet](semiring.AllPaths{}, semiring.AllPathsSelf{}, pathSamples(), pathSamples())
	if err != nil {
		t.Fatal(err)
	}
}

func TestKShortestFilterIsCongruence(t *testing.T) {
	// Build path sets that all end at the target so the congruence check is
	// meaningful, plus edge-weight scalars for SMul.
	target := semiring.NodeID(9)
	elems := []semiring.PathSet{
		nil,
		{semiring.MakePath(1, 9): 2},
		{semiring.MakePath(1, 2, 9): 1, semiring.MakePath(1, 9): 5},
		{semiring.MakePath(2, 9): 3, semiring.MakePath(2, 1, 9): 3},
		{semiring.MakePath(3, 1, 9): 4, semiring.MakePath(3, 9): 2, semiring.MakePath(3, 2, 9): 6},
	}
	scalars := []semiring.PathSet{
		semiring.AllPaths{}.One(),
		nil,
		{semiring.MakePath(0, 1): 1},
		{semiring.MakePath(0, 2): 2, semiring.MakePath(0, 3): 5},
	}
	r := semiring.KShortestFilter(2, target, false)
	err := semiringtest.CheckFilterCongruence[semiring.PathSet, semiring.PathSet](semiring.AllPathsSelf{}, r, scalars, elems)
	if err != nil {
		t.Fatal(err)
	}
}

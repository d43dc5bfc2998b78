package semiringtest

import "parmbf/internal/semiring"

// DiffDistMapModule is semiring.DistMapModule with the Diff of
// semiring.StaircaseModule. Tests that compare the fused LE module's
// tracker work with a DistMapModule reference give the reference this
// module, so that both merge the same deltas and charge the same work.
type DiffDistMapModule struct{ semiring.DistMapModule }

// Diff is semiring.StaircaseModule's Diff.
func (DiffDistMapModule) Diff(a *semiring.DeltaArena, old, cur semiring.DistMap) semiring.DistMap {
	return semiring.StaircaseModule{}.Diff(a, old, cur)
}

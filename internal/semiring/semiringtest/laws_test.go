package semiringtest

import (
	"math"
	"strings"
	"testing"

	"parmbf/internal/semiring"
)

// plusMin is (ℝ≥0 ∪ {∞}, +, min): both operations are commutative monoids
// and min(·, 0) annihilates, but min does not distribute over +.
type plusMin struct{}

func (plusMin) Add(a, b float64) float64 { return a + b }
func (plusMin) Mul(a, b float64) float64 { return math.Min(a, b) }
func (plusMin) Zero() float64            { return 0 }
func (plusMin) One() float64             { return semiring.Inf }
func (plusMin) Equal(a, b float64) bool  { return a == b }

// sumModule is MinPlusSelf with ⊕ replaced by ordinary addition, which is
// not idempotent: s⊙(x⊕y) = s+x+y differs from (s⊙x)⊕(s⊙y) = 2s+x+y.
type sumModule struct{ semiring.MinPlusSelf }

func (sumModule) Zero() float64            { return 0 }
func (sumModule) Add(x, y float64) float64 { return x + y }
func (sumModule) SMul(s, x float64) float64 {
	if semiring.IsInf(s) {
		return 0
	}
	return s + x
}

// squareModule is MinPlusSelf with the scalar squared before it acts:
// s⊙x = s²+x keeps Equations 2.1–2.4 on non-negative scalars but breaks
// 2.5, (s+t)²+x ≠ s²+t²+x.
type squareModule struct{ semiring.MinPlusSelf }

func (squareModule) SMul(s, x float64) float64 { return s*s + x }

func TestCheckersAcceptMinPlusAndRejectPlantedDefects(t *testing.T) {
	scalars := []float64{0, 1, 2, 7, semiring.Inf}
	mod := semiring.MinPlusSelf{}
	capAt5 := func(x float64) float64 { return math.Min(x, 5) }
	roundDown := func(x float64) float64 { return 2 * math.Floor(x/2) } // r(1+r(1)) = 0 ≠ r(1+1) = 2
	plusOne := func(x float64) float64 { return x + 1 }                 // not idempotent
	for _, tc := range []struct {
		name  string
		check func() error
		want  string // "" for an algebra that must pass
	}{
		{"MinPlus semiring", func() error { return CheckSemiringLaws[float64](semiring.MinPlus{}, scalars) }, ""},
		{"min over + distributivity", func() error { return CheckSemiringLaws[float64](plusMin{}, scalars) }, "distributivity"},
		{"MinPlusSelf module", func() error {
			return CheckSemimoduleLaws[float64, float64](semiring.MinPlus{}, mod, scalars, scalars)
		}, ""},
		{"non-idempotent module Add", func() error {
			return CheckSemimoduleLaws[float64, float64](semiring.MinPlus{}, sumModule{}, scalars, scalars)
		}, "s⊙(x⊕y)"},
		{"scalar action breaks Equation 2.5", func() error {
			return CheckSemimoduleLaws[float64, float64](semiring.MinPlus{}, squareModule{}, scalars, scalars)
		}, "(s⊙t)⊙x"},
		{"cap filter", func() error { return CheckFilterCongruence[float64, float64](mod, capAt5, scalars, scalars) }, ""},
		{"non-congruence filter", func() error {
			return CheckFilterCongruence[float64, float64](mod, roundDown, scalars, scalars)
		}, "r(s⊙x) ≠ r(s⊙r(x))"},
		{"non-idempotent filter", func() error {
			return CheckFilterCongruence[float64, float64](mod, plusOne, scalars, scalars)
		}, "not idempotent"},
	} {
		err := tc.check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected a lawful algebra: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: planted defect accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

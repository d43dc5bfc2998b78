package semiring

import "math"

// Inf is the additive identity (the "zero") of the min-plus semiring: the
// distance value meaning "unreachable".
var Inf = math.Inf(1)

// IsInf reports whether d is the min-plus zero.
func IsInf(d float64) bool { return math.IsInf(d, 1) }

// MinPlus is the tropical semiring S_{min,+} = (ℝ≥0 ∪ {∞}, min, +) of
// Definition A.2 / §1.2, the workhorse for distance computations: matrix
// powers over MinPlus yield h-hop distances (Lemma 3.1).
type MinPlus struct{}

// Add returns min(a, b).
func (MinPlus) Add(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Mul returns a + b with ∞ absorbing.
func (MinPlus) Mul(a, b float64) float64 {
	// IEEE float addition already satisfies ∞ + x = ∞ for x ≥ 0.
	return a + b
}

// Zero returns ∞, the neutral element of min and annihilator of +.
func (MinPlus) Zero() float64 { return Inf }

// One returns 0, the neutral element of +.
func (MinPlus) One() float64 { return 0 }

// Equal reports a == b (∞ compares equal to ∞).
func (MinPlus) Equal(a, b float64) bool { return a == b }

// MinPlusSelf is S_{min,+} viewed as a zero-preserving semimodule over
// itself, the module used by plain SSSP (Example 3.3) and forest fires
// (Example 3.7).
type MinPlusSelf struct{}

// Add returns min(x, y).
func (MinPlusSelf) Add(x, y float64) float64 { return MinPlus{}.Add(x, y) }

// SMul returns s + x.
func (MinPlusSelf) SMul(s, x float64) float64 { return MinPlus{}.Mul(s, x) }

// Zero returns ∞.
func (MinPlusSelf) Zero() float64 { return Inf }

// Equal reports x == y.
func (MinPlusSelf) Equal(x, y float64) bool { return x == y }

// Aggregate implements the Aggregator fast path: min over the shifted
// neighbor distances, in one scan with no intermediate values, then the
// filter.
func (MinPlusSelf) Aggregate(_ *Scratch, self float64, terms []Term[float64, float64], filter Filter[float64]) float64 {
	acc := self
	for _, t := range terms {
		if v := t.S + t.X; v < acc {
			acc = v
		}
	}
	if filter != nil {
		return filter(acc)
	}
	return acc
}

var (
	_ Semiring[float64]            = MinPlus{}
	_ Aggregator[float64, float64] = MinPlusSelf{}
)

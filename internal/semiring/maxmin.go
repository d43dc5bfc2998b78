package semiring

// MaxMin is the max-min ("bottleneck") semiring S_{max,min} =
// (ℝ≥0 ∪ {∞}, max, min) of Definition 3.9, used for widest-path problems:
// matrix powers over MaxMin yield h-hop widest-path distances (Lemma 3.12).
type MaxMin struct{}

// Add returns max(a, b).
func (MaxMin) Add(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Mul returns min(a, b).
func (MaxMin) Mul(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Zero returns 0, the neutral element of max and annihilator of min
// (all widths are non-negative).
func (MaxMin) Zero() float64 { return 0 }

// One returns ∞, the neutral element of min.
func (MaxMin) One() float64 { return Inf }

// Equal reports a == b.
func (MaxMin) Equal(a, b float64) bool { return a == b }

// MaxMinSelf is S_{max,min} viewed as a zero-preserving semimodule over
// itself, used by single-source widest paths (Example 3.13).
type MaxMinSelf struct{}

// Add returns max(x, y).
func (MaxMinSelf) Add(x, y float64) float64 { return MaxMin{}.Add(x, y) }

// SMul returns min(s, x).
func (MaxMinSelf) SMul(s, x float64) float64 { return MaxMin{}.Mul(s, x) }

// Zero returns 0.
func (MaxMinSelf) Zero() float64 { return 0 }

// Equal reports x == y.
func (MaxMinSelf) Equal(x, y float64) bool { return x == y }

// Aggregate implements the Aggregator fast path: max over the edge-capped
// neighbor widths, in one scan with no intermediate values, then the
// filter.
func (MaxMinSelf) Aggregate(_ *Scratch, self float64, terms []Term[float64, float64], filter Filter[float64]) float64 {
	acc := self
	for _, t := range terms {
		v := t.X
		if t.S < v {
			v = t.S
		}
		if v > acc {
			acc = v
		}
	}
	if filter != nil {
		return filter(acc)
	}
	return acc
}

var (
	_ Semiring[float64]            = MaxMin{}
	_ Aggregator[float64, float64] = MaxMinSelf{}
)

package semiring

// Boolean is the Boolean semiring B = ({0,1}, ∨, ∧) of §3.4, used for
// connectivity queries: matrix powers over Boolean tell which node pairs are
// connected by ≤ h-hop paths (Equation 3.30).
type Boolean struct{}

// Add returns a ∨ b.
func (Boolean) Add(a, b bool) bool { return a || b }

// Mul returns a ∧ b.
func (Boolean) Mul(a, b bool) bool { return a && b }

// Zero returns false.
func (Boolean) Zero() bool { return false }

// One returns true.
func (Boolean) One() bool { return true }

// Equal reports a == b.
func (Boolean) Equal(a, b bool) bool { return a == b }

// BoolSet is the power semimodule B^V over the Boolean semiring, represented
// sparsely as a sorted set of node IDs with a true entry. It backs the
// multi-source connectivity algorithm of Example 3.25.
type BoolSet struct{}

// Add returns the union of x and y. Both inputs must be sorted; the result
// is sorted.
func (BoolSet) Add(x, y []NodeID) []NodeID {
	if len(x) == 0 {
		return y
	}
	if len(y) == 0 {
		return x
	}
	out := make([]NodeID, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			out = append(out, x[i])
			i++
		case x[i] > y[j]:
			out = append(out, y[j])
			j++
		default:
			out = append(out, x[i])
			i++
			j++
		}
	}
	out = append(out, x[i:]...)
	out = append(out, y[j:]...)
	return out
}

// SMul returns x if s is true and the empty set otherwise (propagating over
// a non-edge loses the information).
func (BoolSet) SMul(s bool, x []NodeID) []NodeID {
	if !s {
		return nil
	}
	return x
}

// Zero returns the empty set.
func (BoolSet) Zero() []NodeID { return nil }

// Equal reports element-wise equality of the sorted sets.
func (BoolSet) Equal(x, y []NodeID) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

var (
	_ Semiring[bool]             = Boolean{}
	_ Semimodule[bool, []NodeID] = BoolSet{}
)

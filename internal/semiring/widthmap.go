package semiring

// WidthEntry is one (node, width) pair of a sparse width map.
type WidthEntry struct {
	Node  NodeID
	Width float64
}

// WidthMap is an element of the semimodule W of Corollary 3.11: a vector in
// (ℝ≥0 ∪ {∞})^V over the max-min semiring, stored sparsely as entries sorted
// by node ID. Absent nodes implicitly hold width 0 (the zero of S_{max,min});
// the zero element ⊥ = (0, …, 0)ᵀ is the empty map.
type WidthMap []WidthEntry

// WidthMapModule implements the zero-preserving semimodule W over
// S_{max,min}: aggregation is the node-wise maximum (Equation 3.7) and
// propagation over an edge of width s caps all stored widths at s
// (Equation 3.8).
type WidthMapModule struct{}

// Add returns the node-wise maximum of x and y.
func (WidthMapModule) Add(x, y WidthMap) WidthMap {
	if len(x) == 0 {
		return y
	}
	if len(y) == 0 {
		return x
	}
	out := make(WidthMap, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i].Node < y[j].Node:
			out = append(out, x[i])
			i++
		case x[i].Node > y[j].Node:
			out = append(out, y[j])
			j++
		default:
			e := x[i]
			if y[j].Width > e.Width {
				e.Width = y[j].Width
			}
			out = append(out, e)
			i++
			j++
		}
	}
	out = append(out, x[i:]...)
	out = append(out, y[j:]...)
	return out
}

// SMul caps every stored width at s. Multiplying by 0 — propagating over a
// non-edge — yields ⊥.
func (WidthMapModule) SMul(s float64, x WidthMap) WidthMap {
	if s == 0 || len(x) == 0 {
		return nil
	}
	out := make(WidthMap, 0, len(x))
	for _, e := range x {
		w := e.Width
		if s < w {
			w = s
		}
		if w > 0 {
			out = append(out, WidthEntry{Node: e.Node, Width: w})
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Zero returns ⊥, the empty width map.
func (WidthMapModule) Zero() WidthMap { return nil }

// Equal reports whether x and y store identical entries.
func (WidthMapModule) Equal(x, y WidthMap) bool {
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

var _ Semimodule[float64, WidthMap] = WidthMapModule{}

// Get returns the width stored for node v, or 0 if absent.
func (x WidthMap) Get(v NodeID) float64 {
	for _, e := range x {
		if e.Node == v {
			return e.Width
		}
		if e.Node > v {
			break
		}
	}
	return 0
}

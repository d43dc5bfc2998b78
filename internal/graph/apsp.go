package graph

import (
	"math"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// Matrix is a dense n×n distance matrix over the min-plus semiring,
// row-major.
type Matrix struct {
	N    int
	Data []float64
}

// NewMatrix returns an n×n matrix filled with ∞ off the diagonal and 0 on
// it — the multiplicative identity of the matrix semiring.
func NewMatrix(n int) *Matrix {
	m := &Matrix{N: n, Data: make([]float64, n*n)}
	for i := range m.Data {
		m.Data[i] = semiring.Inf
	}
	for v := 0; v < n; v++ {
		m.Data[v*n+v] = 0
	}
	return m
}

// At returns m[v][w].
func (m *Matrix) At(v, w int) float64 { return m.Data[v*m.N+w] }

// Set assigns m[v][w] = d.
func (m *Matrix) Set(v, w int, d float64) { m.Data[v*m.N+w] = d }

// APSPDijkstra computes exact all-pairs distances with one Dijkstra per
// node, parallelised over sources. It is the work-efficient but
// depth-Ω(SPD) ground truth used by the tests and stretch measurements.
func APSPDijkstra(g *Graph) *Matrix {
	n := g.N()
	m := &Matrix{N: n, Data: make([]float64, n*n)}
	par.ForEach(n, func(v int) {
		res := Dijkstra(g, Node(v))
		copy(m.Data[v*n:(v+1)*n], res.Dist)
	})
	return m
}

// IsMetric verifies that the matrix is a metric on the reachable pairs:
// symmetric, zero exactly on the diagonal, and satisfying the triangle
// inequality up to floating-point slack eps. It returns false for the first
// violated constraint. The FRT construction crucially depends on this
// property (Observation 1.1 explains why approximate distances are not
// enough).
func (m *Matrix) IsMetric(eps float64) bool {
	n := m.N
	for v := 0; v < n; v++ {
		if m.At(v, v) != 0 {
			return false
		}
		for w := 0; w < n; w++ {
			a, b := m.At(v, w), m.At(w, v)
			if semiring.IsInf(a) != semiring.IsInf(b) {
				return false
			}
			if !semiring.IsInf(a) && math.Abs(a-b) > eps {
				return false
			}
			if v != w && m.At(v, w) <= 0 {
				return false
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			duv := m.At(u, v)
			if semiring.IsInf(duv) {
				continue
			}
			for w := 0; w < n; w++ {
				if m.At(u, w) > duv+m.At(v, w)+eps {
					return false
				}
			}
		}
	}
	return true
}

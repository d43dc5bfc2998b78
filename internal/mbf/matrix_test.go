package mbf

import (
	"fmt"

	"parmbf/internal/semiring"
)

// This file implements the Simple Linear Function (SLF) machinery of §2.4
// of the paper in its concrete matrix form: square matrices over an
// arbitrary semiring, with addition, multiplication, and powers. Lemma 2.14
// states that SLFs under (⊕, ∘) are isomorphic to the matrix semiring over
// S; slf_test.go realises the isomorphism by checking that h iterations of the
// MBF-like engine equal multiplication by A^h, for every algebra in the
// toolbox (Definition 2.11: A^h(G) = r^V A^h x(0)).

// Mat is a dense square matrix over a semiring, row-major.
type Mat[S any] struct {
	N    int
	Data []S
}

// NewMat returns the n×n matrix filled with the semiring zero off the
// diagonal and the semiring one on it — the multiplicative identity of the
// matrix semiring.
func NewMat[S any](sr semiring.Semiring[S], n int) *Mat[S] {
	m := &Mat[S]{N: n, Data: make([]S, n*n)}
	for i := range m.Data {
		m.Data[i] = sr.Zero()
	}
	for v := 0; v < n; v++ {
		m.Data[v*n+v] = sr.One()
	}
	return m
}

// At returns m[v][w].
func (m *Mat[S]) At(v, w int) S { return m.Data[v*m.N+w] }

// Set assigns m[v][w] = s.
func (m *Mat[S]) Set(v, w int, s S) { m.Data[v*m.N+w] = s }

// MatAdd returns the element-wise sum a ⊕ b (Equation 1.5 generalised).
func MatAdd[S any](sr semiring.Semiring[S], a, b *Mat[S]) *Mat[S] {
	if a.N != b.N {
		panic(fmt.Sprintf("matrix: size mismatch %d vs %d", a.N, b.N))
	}
	out := &Mat[S]{N: a.N, Data: make([]S, len(a.Data))}
	for i := range a.Data {
		out.Data[i] = sr.Add(a.Data[i], b.Data[i])
	}
	return out
}

// MatMul returns the semiring matrix product a ⊙ b (Equation 1.6
// generalised): (ab)_{vw} = ⊕_u a_{vu} ⊙ b_{uw}.
func MatMul[S any](sr semiring.Semiring[S], a, b *Mat[S]) *Mat[S] {
	if a.N != b.N {
		panic(fmt.Sprintf("matrix: size mismatch %d vs %d", a.N, b.N))
	}
	n := a.N
	out := &Mat[S]{N: n, Data: make([]S, n*n)}
	for v := 0; v < n; v++ {
		for w := 0; w < n; w++ {
			acc := sr.Zero()
			for u := 0; u < n; u++ {
				acc = sr.Add(acc, sr.Mul(a.At(v, u), b.At(u, w)))
			}
			out.Set(v, w, acc)
		}
	}
	return out
}

// MatPow returns a^h by repeated multiplication (h ≥ 0; a⁰ is the
// identity).
func MatPow[S any](sr semiring.Semiring[S], a *Mat[S], h int) *Mat[S] {
	out := NewMat(sr, a.N)
	for i := 0; i < h; i++ {
		out = MatMul(sr, out, a)
	}
	return out
}

// MatApply computes the SLF application (Ax)_v = ⊕_w a_{vw} ⊙ x_w of
// Definition 2.12, for a module state vector x over the semimodule mod.
func MatApply[S, M any](sr semiring.Semiring[S], mod semiring.Semimodule[S, M], a *Mat[S], x []M) []M {
	if a.N != len(x) {
		panic(fmt.Sprintf("matrix: size %d vs vector length %d", a.N, len(x)))
	}
	out := make([]M, len(x))
	for v := 0; v < a.N; v++ {
		acc := mod.Zero()
		for w := 0; w < a.N; w++ {
			acc = mod.Add(acc, mod.SMul(a.At(v, w), x[w]))
		}
		out[v] = acc
	}
	return out
}

// MatEqual reports element-wise equality.
func MatEqual[S any](sr semiring.Semiring[S], a, b *Mat[S]) bool {
	if a.N != b.N {
		return false
	}
	for i := range a.Data {
		if !sr.Equal(a.Data[i], b.Data[i]) {
			return false
		}
	}
	return true
}

// Package semiring implements the algebraic core of Friedrichs & Lenzen's
// framework for Moore-Bellman-Ford-like (MBF-like) algorithms (§2 and
// Appendix A of the paper).
//
// An MBF-like algorithm is specified by
//
//	(1) a zero-preserving semimodule M over a semiring S,
//	(2) a congruence relation on M with a representative projection
//	    ("filter") r: M → M, and
//	(3) initial node values x(0) ∈ M^V.
//
// One iteration propagates node states along edges (scalar multiplication
// with the edge weight, an element of S), aggregates incoming states at every
// node (the semimodule addition ⊕), and filters the result (applies r).
// Corollary 2.17 of the paper — r^V ∼ id — guarantees that filtering at any
// intermediate point never changes the final output, only the cost.
//
// This package provides the semiring and semimodule interfaces, the concrete
// algebras used by the paper (min-plus §3.1, max-min §3.2, all-paths §3.3,
// Boolean §3.4), the sparse distance-map semimodule D of Definition 2.1, and
// law-checking helpers used by the property-based tests.
//
// # Aggregation fast path
//
// A semimodule may additionally implement Aggregator, the k-way aggregation
// of Lemma 2.3: the engine then hands it a node's whole neighborhood and
// its filter at once, and the module computes r(x(v) ⊕ ⊕_w a_{vw} ⊙ x(w))
// as one merge, allocating only the result, instead of the generic Add/SMul
// fold that materialises ~2·deg(v) intermediates per node. DistMap and the
// scalar algebras (MinPlusSelf, MaxMinSelf) implement it, because a paired
// benchmark shows each beating the fold;
// WidthMap, the Boolean node sets and the all-paths PathSet rely on the
// fold. The fold is the semantic definition (Definition 2.11), and every
// Aggregate must be extensionally equal to it (pinned by the differential
// tests in internal/mbf).
package semiring

// NodeID identifies a vertex. Graph code aliases this type; it lives here so
// the algebra packages need no dependency on the graph package.
type NodeID = int32

// Semiring describes a semiring (S, ⊕, ⊙) in the sense of Definition A.2:
// (S, ⊕) is a commutative semigroup with neutral element Zero, (S, ⊙) is a
// semigroup with neutral element One, ⊙ distributes over ⊕ from both sides,
// and Zero annihilates under ⊙.
type Semiring[S any] interface {
	// Add is the semiring addition ⊕.
	Add(a, b S) S
	// Mul is the semiring multiplication ⊙.
	Mul(a, b S) S
	// Zero is the neutral element of Add and the annihilator of Mul.
	Zero() S
	// One is the neutral element of Mul.
	One() S
	// Equal reports whether two elements are equal. It is used by fixpoint
	// detection and by the law-checking tests.
	Equal(a, b S) bool
}

// Semimodule describes a zero-preserving semimodule (M, ⊕, ⊙) over a
// semiring S in the sense of Definition A.3: (M, ⊕) is a semigroup with
// neutral element Zero, scalar multiplication satisfies the mixed
// associative/distributive laws (2.1)–(2.5), and the semiring zero
// annihilates: Zero_S ⊙ x = Zero_M.
type Semimodule[S, M any] interface {
	// Add is the semimodule addition ⊕ (aggregation of node states).
	Add(x, y M) M
	// SMul is the scalar multiplication s ⊙ x (propagation of a node state
	// over an edge of weight s).
	SMul(s S, x M) M
	// Zero is the neutral element ⊥ of Add ("no information").
	Zero() M
	// Equal reports whether two module elements are equal. It is the change
	// detector of the frontier-driven sparse fixpoint engine (mbf): after a
	// node is re-aggregated, Equal against the previous state decides
	// whether the node enters the next frontier, so it must be exact
	// representation equality — cheap (linear in the state size) and never
	// a semantic approximation, or stable nodes would be re-aggregated (or,
	// worse, real changes missed) forever.
	Equal(x, y M) bool
}

// Filter is a representative projection r: M → M for a congruence relation ∼
// on a semimodule (Definition 2.6): x ∼ r(x) for all x, and x ∼ y implies
// r(x) = r(y). Filters discard information that is irrelevant to the problem
// at hand; by Corollary 2.17 they may be applied after any iteration without
// changing the output.
//
// Every filter is pure: it never writes its argument, and it returns either
// the argument itself (typically when it keeps everything) or a value that
// shares no storage with it. Engines and Aggregate rely on this to hand a
// filter shared input states and scratch merges alike.
type Filter[M any] func(M) M

// Identity returns the identity filter, the trivial representative
// projection used by algorithms that never discard information (e.g. APSP,
// Example 3.5).
func Identity[M any]() Filter[M] {
	return func(x M) M { return x }
}

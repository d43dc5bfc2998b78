// Package semiringtest provides executable checks for the algebraic laws of
// Definitions A.2 (semiring), A.3 (semimodule), and 2.4/2.6 (congruence
// relation with representative projection). The property-based tests drive
// these checkers with sample elements; any law violation in a concrete
// algebra is a bug in this library, since the paper's correctness results
// (in particular Corollary 2.17, which justifies intermediate filtering)
// rest exactly on these laws. It is test support: only _test.go files may
// import it (make vet enforces this).
package semiringtest

import (
	"fmt"

	"parmbf/internal/semiring"
)

// CheckSemiringLaws verifies the semiring axioms on all combinations of the
// sample elements and returns a descriptive error for the first violation.
func CheckSemiringLaws[S any](sr semiring.Semiring[S], samples []S) error {
	zero, one := sr.Zero(), sr.One()
	for _, a := range samples {
		if !sr.Equal(sr.Add(a, zero), a) || !sr.Equal(sr.Add(zero, a), a) {
			return fmt.Errorf("additive identity violated for %v", a)
		}
		if !sr.Equal(sr.Mul(a, one), a) || !sr.Equal(sr.Mul(one, a), a) {
			return fmt.Errorf("multiplicative identity violated for %v", a)
		}
		if !sr.Equal(sr.Mul(a, zero), zero) || !sr.Equal(sr.Mul(zero, a), zero) {
			return fmt.Errorf("zero does not annihilate for %v", a)
		}
		for _, b := range samples {
			if !sr.Equal(sr.Add(a, b), sr.Add(b, a)) {
				return fmt.Errorf("addition not commutative for %v, %v", a, b)
			}
			for _, c := range samples {
				if !sr.Equal(sr.Add(sr.Add(a, b), c), sr.Add(a, sr.Add(b, c))) {
					return fmt.Errorf("addition not associative for %v, %v, %v", a, b, c)
				}
				if !sr.Equal(sr.Mul(sr.Mul(a, b), c), sr.Mul(a, sr.Mul(b, c))) {
					return fmt.Errorf("multiplication not associative for %v, %v, %v", a, b, c)
				}
				if !sr.Equal(sr.Mul(a, sr.Add(b, c)), sr.Add(sr.Mul(a, b), sr.Mul(a, c))) {
					return fmt.Errorf("left distributivity violated for %v, %v, %v", a, b, c)
				}
				if !sr.Equal(sr.Mul(sr.Add(b, c), a), sr.Add(sr.Mul(b, a), sr.Mul(c, a))) {
					return fmt.Errorf("right distributivity violated for %v, %v, %v", a, b, c)
				}
			}
		}
	}
	return nil
}

// CheckSemimoduleLaws verifies the zero-preserving-semimodule axioms
// (Equations 2.1–2.5 plus annihilation) on all combinations of the sample
// scalars and module elements.
func CheckSemimoduleLaws[S, M any](sr semiring.Semiring[S], mod semiring.Semimodule[S, M], scalars []S, elems []M) error {
	bot := mod.Zero()
	for _, x := range elems {
		if !mod.Equal(mod.Add(x, bot), x) || !mod.Equal(mod.Add(bot, x), x) {
			return fmt.Errorf("⊥ is not neutral for %v", x)
		}
		if !mod.Equal(mod.SMul(sr.One(), x), x) {
			return fmt.Errorf("1 ⊙ x ≠ x for %v", x) // Equation 2.1
		}
		if !mod.Equal(mod.SMul(sr.Zero(), x), bot) {
			return fmt.Errorf("0_S ⊙ x ≠ ⊥ for %v", x) // Equation 2.2
		}
		for _, y := range elems {
			for _, s := range scalars {
				if !mod.Equal(mod.SMul(s, mod.Add(x, y)), mod.Add(mod.SMul(s, x), mod.SMul(s, y))) {
					return fmt.Errorf("s⊙(x⊕y) ≠ (s⊙x)⊕(s⊙y) for s=%v x=%v y=%v", s, x, y) // Equation 2.3
				}
			}
		}
		for _, s := range scalars {
			for _, t := range scalars {
				if !mod.Equal(mod.SMul(sr.Add(s, t), x), mod.Add(mod.SMul(s, x), mod.SMul(t, x))) {
					return fmt.Errorf("(s⊕t)⊙x ≠ (s⊙x)⊕(t⊙x) for s=%v t=%v x=%v", s, t, x) // Equation 2.4
				}
				if !mod.Equal(mod.SMul(sr.Mul(s, t), x), mod.SMul(s, mod.SMul(t, x))) {
					return fmt.Errorf("(s⊙t)⊙x ≠ s⊙(t⊙x) for s=%v t=%v x=%v", s, t, x) // Equation 2.5
				}
			}
		}
	}
	return nil
}

// CheckFilterCongruence verifies, on the given samples, that r is a
// representative projection whose induced relation x ∼ y :⇔ r(x) = r(y) is a
// congruence (Lemma 2.8): r is idempotent, r(s⊙x) depends on x only through
// r(x), and r(x⊕y) depends on x, y only through r(x), r(y). The latter two
// are checked in the sufficient single-sided form r(s⊙x) = r(s⊙r(x)) and
// r(x⊕y) = r(r(x)⊕r(y)) used in the proof of Lemma 7.5 (Equation 7.7),
// which implies the two-sided conditions by transitivity.
func CheckFilterCongruence[S, M any](mod semiring.Semimodule[S, M], r semiring.Filter[M], scalars []S, elems []M) error {
	for _, x := range elems {
		rx := r(x)
		if !mod.Equal(r(rx), rx) {
			return fmt.Errorf("filter not idempotent on %v", x)
		}
		for _, s := range scalars {
			if !mod.Equal(r(mod.SMul(s, x)), r(mod.SMul(s, rx))) {
				return fmt.Errorf("r(s⊙x) ≠ r(s⊙r(x)) for s=%v x=%v", s, x)
			}
		}
		for _, y := range elems {
			if !mod.Equal(r(mod.Add(x, y)), r(mod.Add(r(x), r(y)))) {
				return fmt.Errorf("r(x⊕y) ≠ r(r(x)⊕r(y)) for x=%v y=%v", x, y)
			}
		}
	}
	return nil
}

package mbf

import "parmbf/internal/graph"

// Stepper drives a sparse fixpoint one iteration at a time for callers that
// need to observe (or account for) the states between steps — the CONGEST
// simulations meter per-round message sizes, so they cannot hand the whole
// loop to RunToFixpoint. The stepper owns its state vector and one
// deltaScratch for its entire life, so each Step is the in-place O(affected)
// sparse iteration of RunToFixpoint's loop.
//
// A Stepper is not safe for concurrent use (each Step parallelises
// internally), and the runner's Graph/Module/Filter must not change while a
// stepper is live. Call Release when done to return the scratch to the
// runner's pool; the state vector stays valid afterwards.
type Stepper[S, M any] struct {
	r        *Runner[S, M]
	x        []M
	frontier []graph.Node
	ds       *deltaScratch[M]
	steps    int
}

// NewStepper filters x0 into a stepper-owned vector and seeds the frontier
// exactly as RunToFixpoint does before its first iteration. The input vector
// is not retained.
func (r *Runner[S, M]) NewStepper(x0 []M) *Stepper[S, M] {
	x, seeds, ds := r.start(x0)
	return &Stepper[S, M]{r: r, x: x, frontier: seeds, ds: ds}
}

// Step performs one sparse iteration in place and reports whether any state
// changed: the first from the seeds' whole in-neighbourhoods and every other
// candidate's seed neighbours, every later one semi-naive from the previous
// step's changed nodes only (their deltas, for a module with
// semiring.Differ), as in RunToFixpoint. Once it returns false the
// fixpoint is reached and further calls are no-ops.
func (st *Stepper[S, M]) Step() bool {
	if len(st.frontier) == 0 {
		return false
	}
	st.frontier = st.r.iterateDelta(st.x, st.frontier, st.steps == 0, st.ds)
	st.steps++
	return len(st.frontier) > 0
}

// Done reports whether the fixpoint has been reached.
func (st *Stepper[S, M]) Done() bool { return len(st.frontier) == 0 }

// States returns the stepper's current state vector. The stepper keeps
// mutating it on Step; callers that need a stable snapshot must copy.
func (st *Stepper[S, M]) States() []M { return st.x }

// Steps returns the number of iterations performed so far.
func (st *Stepper[S, M]) Steps() int { return st.steps }

// Release returns the stepper's scratch to the runner's pool. The state
// vector remains readable; Step must not be called afterwards.
func (st *Stepper[S, M]) Release() {
	if st.ds != nil {
		st.r.putDelta(st.ds)
		st.ds = nil
		st.frontier = nil
	}
}

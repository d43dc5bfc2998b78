package par

import "sync/atomic"

// Tracker realises the paper's abstract work/depth cost model (§1.2): the
// computation is a DAG whose node count is the work and whose longest path is
// the depth. Algorithms in this library accept an optional *Tracker and
// charge work at the granularity of semiring operations / edge relaxations;
// parallel phases record their depth as the maximum over branches plus the
// phase's own critical path.
//
// A nil *Tracker is valid and free: all methods are nil-safe no-ops, so the
// hot paths only pay an atomic add when instrumentation is requested.
type Tracker struct {
	work  atomic.Int64
	depth atomic.Int64
}

// AddWork charges n units of work.
func (t *Tracker) AddWork(n int64) {
	if t != nil {
		t.work.Add(n)
	}
}

// AddDepth charges n units of sequential depth (a phase on the critical
// path).
func (t *Tracker) AddDepth(n int64) {
	if t != nil {
		t.depth.Add(n)
	}
}

// AddPhase records a parallel phase: work is the phase's total operation
// count and depth its critical path (max over the parallel branches).
func (t *Tracker) AddPhase(work, depth int64) {
	if t != nil {
		t.work.Add(work)
		t.depth.Add(depth)
	}
}

// Work returns the accumulated work.
func (t *Tracker) Work() int64 {
	if t == nil {
		return 0
	}
	return t.work.Load()
}

// Depth returns the accumulated depth.
func (t *Tracker) Depth() int64 {
	if t == nil {
		return 0
	}
	return t.depth.Load()
}

// Reset clears both counters.
func (t *Tracker) Reset() {
	if t != nil {
		t.work.Store(0)
		t.depth.Store(0)
	}
}

// Fork returns private trackers for n independent branches of one parallel
// phase and a join that charges t the phase: the branches' summed work and
// the depth of the deepest branch (§1.2). Call join once every branch is
// done. On a nil t the branches are nil and join does nothing, so untracked
// callers pay nothing.
func (t *Tracker) Fork(n int) (branches []*Tracker, join func()) {
	branches = make([]*Tracker, n)
	if t == nil {
		return branches, func() {}
	}
	for i := range branches {
		branches[i] = new(Tracker)
	}
	return branches, func() {
		var work, depth int64
		for _, b := range branches {
			work += b.Work()
			depth = max(depth, b.Depth())
		}
		t.AddPhase(work, depth)
	}
}

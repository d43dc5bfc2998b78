// Package par provides the parallel execution substrate used throughout the
// library: a bounded worker pool with a parallel-for primitive, a
// deterministic splittable random number generator, and work/depth counters
// that realise the abstract DAG cost model of Friedrichs & Lenzen (§1.2).
//
// The paper measures algorithms by work (total operations of the computation
// DAG) and depth (its longest path). Wall-clock time on a multicore machine
// depends on scheduling and constants, so the benchmarks in this repository
// report both: instrumented work/depth via Tracker, and wall time as a sanity
// signal.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxProcs is the parallel width used by ForEach. It defaults to GOMAXPROCS
// and may be lowered in tests to exercise sequential execution paths.
var MaxProcs = runtime.GOMAXPROCS(0)

// ForEach invokes body(i) for every i in [0, n), distributing iterations over
// up to MaxProcs goroutines. It blocks until all iterations complete. body
// must be safe for concurrent invocation on distinct indices. It is
// ForEachChunk with a body that loops over its range.
func ForEach(n int, body func(i int)) {
	ForEachChunk(n, func(start, end int) {
		for i := start; i < end; i++ {
			body(i)
		}
	})
}

// ForEachChunk invokes body(start, end) over disjoint half-open ranges
// covering [0, n), distributing ranges over up to MaxProcs goroutines. Each
// goroutine grabs a batch of indices at a time (dynamic chunking), which
// amortises the atomic increment without sacrificing load balance on
// skewed work. ForEach runs through it; bodies that amortise per-worker
// state — pooled scratch, accumulators — over a whole range call it
// directly, as the engine's iteration loops do to fetch their aggregation
// scratch once per chunk.
func ForEachChunk(n int, body func(start, end int)) {
	if n <= 0 {
		return
	}
	procs := MaxProcs
	if procs > n {
		procs = n
	}
	if procs <= 1 {
		body(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(procs)
	chunk := n / (procs * 8)
	if chunk < 1 {
		chunk = 1
	}
	for p := 0; p < procs; p++ {
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				body(start, end)
			}
		}()
	}
	wg.Wait()
}

// Reduce applies body(i) for i in [0, n) in parallel and combines the results
// with merge, which must be associative. zero is the identity for merge.
func Reduce[T any](n int, zero T, body func(i int) T, merge func(a, b T) T) T {
	if n <= 0 {
		return zero
	}
	procs := MaxProcs
	if procs > n {
		procs = n
	}
	if procs <= 1 {
		acc := zero
		for i := 0; i < n; i++ {
			acc = merge(acc, body(i))
		}
		return acc
	}
	partial := make([]T, procs)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(procs)
	chunk := n / (procs * 8)
	if chunk < 1 {
		chunk = 1
	}
	for p := 0; p < procs; p++ {
		go func(p int) {
			defer wg.Done()
			acc := zero
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					break
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					acc = merge(acc, body(i))
				}
			}
			partial[p] = acc
		}(p)
	}
	wg.Wait()
	acc := zero
	for _, v := range partial {
		acc = merge(acc, v)
	}
	return acc
}

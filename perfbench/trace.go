package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Layer is the repository
// module the call enters (graph, hopset, simgraph, frt, par, apps, parmbfd);
// spans the benchmark opens for its own bookkeeping use layer "bench".
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: root
	Request int    `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps every span of a run in memory; write dumps them when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil check per
// boundary. Safe for concurrent use: the per-tree oracle fixpoints of one
// draw run in parallel.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request returns a fresh request id; spans of one operation share it.
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// start opens a span under parent (nil: a root span) and returns it; end
// closes it. Both are no-ops on a nil tracer.
func (t *tracer) start(parent *span, req int, layer, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{Request: req, Layer: layer, Name: name}
	if parent != nil {
		s.Parent = parent.ID
		s.Request = parent.Request
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	s.StartNs = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	s.EndNs = end
	t.mu.Unlock()
}

// spanList returns the recorded spans (nil on a nil tracer).
func (t *tracer) spanList() []*span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// do runs f inside a span and returns the span's duration. On a nil tracer it
// still times f, so callers read one duration either way.
func (t *tracer) do(parent *span, layer, name string, f func(s *span)) time.Duration {
	if t == nil {
		t0 := time.Now()
		f(nil)
		return time.Since(t0)
	}
	s := t.start(parent, 0, layer, name)
	f(s)
	t.end(s)
	return s.dur()
}

// selfTimes returns, per layer, the summed self time of its spans: each span's
// duration minus the part of its interval that its children cover. Children
// of one span may overlap (parallel per-tree fixpoints), so the covered part
// is the union of their intervals, clipped to the parent.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.EndNs > 0 {
			out[s.Layer] += time.Duration(s.EndNs - s.StartNs - covered(s, children[s.ID]))
		}
	}
	return out
}

// coverage returns the share of s's interval that its children cover.
func (t *tracer) coverage(s *span) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var kids []*span
	for _, k := range t.spans {
		if k.Parent == s.ID {
			kids = append(kids, k)
		}
	}
	return float64(covered(s, kids)) / float64(s.EndNs-s.StartNs)
}

// covered returns the length of the union of the kids' intervals, clipped to
// s. It sorts kids in place.
func covered(s *span, kids []*span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total, curLo, curHi int64
	open := false
	for _, k := range kids {
		lo, hi := max(k.StartNs, s.StartNs), min(k.EndNs, s.EndNs)
		if hi <= lo {
			continue
		}
		if open && lo <= curHi {
			curHi = max(curHi, hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = lo, hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps every span, one JSON object per line, to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return f.Close()
}

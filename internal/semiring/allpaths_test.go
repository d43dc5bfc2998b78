package semiring

import (
	"testing"
)

func TestPathEncodeDecode(t *testing.T) {
	cases := [][]NodeID{
		{0},
		{5},
		{1, 2, 3},
		{100000, 7, 99},
	}
	for _, nodes := range cases {
		p := MakePath(nodes...)
		got := p.Nodes()
		if len(got) != len(nodes) {
			t.Fatalf("round trip length: %v vs %v", got, nodes)
		}
		for i := range nodes {
			if got[i] != nodes[i] {
				t.Fatalf("round trip: %v vs %v", got, nodes)
			}
		}
		if p.First() != nodes[0] || p.Last() != nodes[len(nodes)-1] {
			t.Fatalf("First/Last wrong for %v", nodes)
		}
		if p.Hops() != len(nodes)-1 {
			t.Fatalf("Hops = %d, want %d", p.Hops(), len(nodes)-1)
		}
	}
}

func TestPathConcat(t *testing.T) {
	p := MakePath(1, 2)
	q := MakePath(2, 3)
	r, ok := p.Concat(q)
	if !ok {
		t.Fatal("concatenable paths rejected")
	}
	want := MakePath(1, 2, 3)
	if r != want {
		t.Fatalf("Concat = %v, want %v", r, want)
	}
	if _, ok := p.Concat(MakePath(5, 6)); ok {
		t.Fatal("non-concatenable paths accepted")
	}
	// ε is the identity.
	if r, ok := Path("").Concat(p); !ok || r != p {
		t.Fatal("ε ∘ p ≠ p")
	}
	if r, ok := p.Concat(Path("")); !ok || r != p {
		t.Fatal("p ∘ ε ≠ p")
	}
}

func TestPathConcatRejectsLoops(t *testing.T) {
	p := MakePath(1, 2, 3)
	q := MakePath(3, 2)
	if _, ok := p.Concat(q); ok {
		t.Fatal("loop-forming concatenation accepted")
	}
}

func TestPathLexOrderMatchesNodeOrder(t *testing.T) {
	a := MakePath(1, 2)
	b := MakePath(1, 3)
	c := MakePath(2, 1)
	if !(a < b && b < c) {
		t.Fatal("path encoding does not preserve lexicographic node order")
	}
}

func TestAllPathsMulConcatenates(t *testing.T) {
	sr := AllPaths{}
	x := PathSet{MakePath(1, 2): 3, MakePath(1, 3): 1}
	y := PathSet{MakePath(2, 4): 2, MakePath(3, 4): 10}
	got := sr.Mul(x, y)
	want := PathSet{
		MakePath(1, 2, 4): 5,
		MakePath(1, 3, 4): 11,
	}
	if !sr.Equal(got, want) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestAllPathsMulKeepsLightestSplit(t *testing.T) {
	sr := AllPaths{}
	// Two splits produce the same concatenation; the lighter one must win.
	x := PathSet{MakePath(1, 2): 3, MakePath(1, 2, 3): 1}
	y := PathSet{MakePath(2, 3, 4): 2, MakePath(3, 4): 100}
	got := sr.Mul(x, y)
	p := MakePath(1, 2, 3, 4)
	if got[p] != 5 {
		t.Fatalf("weight of %v = %v, want 5 (min over splits)", p, got[p])
	}
}

func TestAllPathsAddKeepsMinimumWeight(t *testing.T) {
	sr := AllPaths{}
	p := MakePath(1, 2)
	got := sr.Add(PathSet{p: 5}, PathSet{p: 3})
	if got[p] != 3 {
		t.Fatalf("Add kept %v, want 3", got[p])
	}
}

func TestKShortestFilterKeepsKLightest(t *testing.T) {
	target := NodeID(9)
	r := KShortestFilter(2, target, false)
	x := PathSet{
		MakePath(1, 9):       5,
		MakePath(1, 2, 9):    3,
		MakePath(1, 3, 9):    4,
		MakePath(2, 9):       1,
		MakePath(1, 4):       0, // wrong target: dropped
		MakePath(4, 1, 2, 9): 7, // different start: kept independently
	}
	got := r(x)
	want := PathSet{
		MakePath(1, 2, 9):    3,
		MakePath(1, 3, 9):    4,
		MakePath(2, 9):       1,
		MakePath(4, 1, 2, 9): 7,
	}
	if !(AllPaths{}).Equal(got, want) {
		t.Fatalf("filter = %v, want %v", got, want)
	}
}

func TestKShortestFilterDistinctWeights(t *testing.T) {
	target := NodeID(9)
	r := KShortestFilter(2, target, true)
	x := PathSet{
		MakePath(1, 2, 9): 3,
		MakePath(1, 3, 9): 3, // same weight: only lexicographically first kept
		MakePath(1, 4, 9): 5,
		MakePath(1, 5, 9): 7, // third distinct weight: dropped
	}
	got := r(x)
	want := PathSet{
		MakePath(1, 2, 9): 3,
		MakePath(1, 4, 9): 5,
	}
	if !(AllPaths{}).Equal(got, want) {
		t.Fatalf("distinct filter = %v, want %v", got, want)
	}
}

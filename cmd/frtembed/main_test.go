package main

import (
	"os"
	"path/filepath"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

func TestLoadGraphGenerators(t *testing.T) {
	rng := par.NewRNG(1)
	for _, gen := range []string{"random", "grid", "path", "cycle", "geometric", "lollipop", "powerlaw"} {
		g, err := graph.Load("", gen, 40, 0, rng)
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		if g.N() < 40 {
			t.Fatalf("%s: n = %d", gen, g.N())
		}
		if !g.Connected() {
			t.Fatalf("%s: disconnected", gen)
		}
	}
	if _, err := graph.Load("", "nope", 10, 0, rng); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

func TestLoadGraphFromFile(t *testing.T) {
	rng := par.NewRNG(2)
	g := graph.RandomConnected(20, 40, 5, rng)
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := graph.Load(path, "", 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 20 || got.M() != 40 {
		t.Fatalf("loaded %d/%d", got.N(), got.M())
	}
	if _, err := graph.Load(filepath.Join(t.TempDir(), "missing.txt"), "", 0, 0, rng); err == nil {
		t.Fatal("missing file accepted")
	}
}

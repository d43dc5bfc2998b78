package frt

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// snapshotRoundTrip writes ens and reads it back, failing the test on any
// codec error.
func snapshotRoundTrip(t *testing.T, ens *Ensemble, meta SnapshotMeta) (*Ensemble, SnapshotMeta) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, ens, meta); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := ReadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return got, gotMeta
}

// TestSnapshotDifferential is the pinning suite of the persistence tier:
// write → read → query must be bitwise identical to the freshly built
// OracleIndex — MinBatch, MedianBatch, per-tree Dist, and the PerTreeBatch
// shard kernel — for every par.MaxProcs setting, so a replica serving from a
// loaded snapshot is indistinguishable from the process that built it.
func TestSnapshotDifferential(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	g, fresh := sampleEnsembleForIndex(t, 17, 72, 216, 5)
	loaded, meta := snapshotRoundTrip(t, fresh, SnapshotMeta{GraphEdges: g.M()})
	if meta.GraphNodes != g.N() || meta.GraphEdges != g.M() {
		t.Fatalf("meta = %+v, want n=%d m=%d", meta, g.N(), g.M())
	}
	if len(loaded.Trees) != len(fresh.Trees) {
		t.Fatalf("loaded %d trees, saved %d", len(loaded.Trees), len(fresh.Trees))
	}
	// The trees themselves must restore bit-for-bit, Beta included.
	for i, tr := range fresh.Trees {
		if !reflect.DeepEqual(tr, loaded.Trees[i]) {
			t.Fatalf("tree %d differs after round trip", i)
		}
	}

	for _, procs := range maxProcsSettings() {
		par.MaxProcs = procs
		// Fresh indexes per width so the parallel index build runs under the
		// width being tested on both sides.
		fidx, err := NewOracleIndex(fresh.Trees)
		if err != nil {
			t.Fatal(err)
		}
		lidx, err := NewOracleIndex(loaded.Trees)
		if err != nil {
			t.Fatal(err)
		}
		prng := par.NewRNG(uint64(300 + procs))
		pairs := make([]Pair, 0, 203)
		for i := 0; i < 200; i++ {
			pairs = append(pairs, Pair{U: graph.Node(prng.Intn(g.N())), V: graph.Node(prng.Intn(g.N()))})
		}
		pairs = append(pairs, Pair{U: 0, V: 0}, Pair{U: 0, V: graph.Node(g.N() - 1)}, Pair{U: graph.Node(g.N() - 1), V: 0})

		if got, want := lidx.MinBatch(pairs, nil), fidx.MinBatch(pairs, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("procs=%d: MinBatch differs after snapshot round trip", procs)
		}
		if got, want := lidx.MedianBatch(pairs, nil), fidx.MedianBatch(pairs, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("procs=%d: MedianBatch differs after snapshot round trip", procs)
		}
		for ti := range fresh.Trees {
			got, err := lidx.PerTreeBatch(pairs, ti, ti+1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pairs {
				if want := fresh.Trees[ti].Dist(p.U, p.V); got[i] != want {
					t.Fatalf("procs=%d tree %d: loaded Dist(%d,%d)=%v, fresh walk %v",
						procs, ti, p.U, p.V, got[i], want)
				}
			}
		}
	}
}

// TestPerTreeBatchMergesToMinAndMedian pins the router-side merge contract:
// concatenating PerTreeBatch shards in ascending tree order and folding with
// Min's strict < (resp. sorting, for Median) reproduces the single-process
// answers bitwise, even when the shards are uneven.
func TestPerTreeBatchMergesToMinAndMedian(t *testing.T) {
	g, ens := sampleEnsembleForIndex(t, 23, 60, 180, 6)
	idx, err := ens.Index()
	if err != nil {
		t.Fatal(err)
	}
	prng := par.NewRNG(24)
	pairs := make([]Pair, 120)
	for i := range pairs {
		pairs[i] = Pair{U: graph.Node(prng.Intn(g.N())), V: graph.Node(prng.Intn(g.N()))}
	}
	k := idx.NumTrees()
	for _, shards := range [][][2]int{
		{{0, k}},
		{{0, 1}, {1, k}},
		{{0, 3}, {3, 5}, {5, k}},
	} {
		perTree := make([]float64, len(pairs)*k)
		for _, s := range shards {
			part, err := idx.PerTreeBatch(pairs, s[0], s[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			w := s[1] - s[0]
			for i := range pairs {
				copy(perTree[i*k+s[0]:i*k+s[1]], part[i*w:(i+1)*w])
			}
		}
		wantMin := idx.MinBatch(pairs, nil)
		wantMed := idx.MedianBatch(pairs, nil)
		for i, p := range pairs {
			ds := append([]float64(nil), perTree[i*k:(i+1)*k]...)
			best := ds[0]
			for _, d := range ds[1:] {
				if d < best {
					best = d
				}
			}
			if p.U == p.V {
				best = 0
			}
			if best != wantMin[i] {
				t.Fatalf("shards %v pair %d: merged min %v, Min %v", shards, i, best, wantMin[i])
			}
			var med float64
			if p.U == p.V {
				med = 0
			} else {
				insertionSort(ds)
				mid := len(ds) / 2
				if len(ds)%2 == 1 {
					med = ds[mid]
				} else {
					med = (ds[mid-1] + ds[mid]) / 2
				}
			}
			if med != wantMed[i] {
				t.Fatalf("shards %v pair %d: merged median %v, Median %v", shards, i, med, wantMed[i])
			}
		}
	}
}

// TestPerTreeBatchRejectsBadShards covers the range guards.
func TestPerTreeBatchRejectsBadShards(t *testing.T) {
	_, ens := sampleEnsembleForIndex(t, 27, 20, 50, 3)
	idx, err := ens.Index()
	if err != nil {
		t.Fatal(err)
	}
	pairs := []Pair{{U: 0, V: 1}}
	for _, r := range [][2]int{{-1, 2}, {0, 4}, {2, 2}, {2, 1}} {
		if _, err := idx.PerTreeBatch(pairs, r[0], r[1], nil); err == nil {
			t.Errorf("shard [%d,%d) accepted", r[0], r[1])
		}
	}
	out, err := idx.PerTreeBatch(pairs, 0, 3, make([]float64, 8))
	if err != nil || len(out) != 3 {
		t.Fatalf("full-range PerTreeBatch: out=%d err=%v", len(out), err)
	}
}

// TestSnapshotReproducesFingerprints closes the determinism loop across
// persistence: the committed fixed-seed ensemble fingerprints must be
// reproduced from trees that went through a snapshot save/load — if the
// codec dropped so much as one bit of a weight or Beta, the digest moves.
func TestSnapshotReproducesFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("full fingerprint pipelines are the long tier's job")
	}
	for i, cfg := range fingerprintConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			ens := buildFingerprintEnsemble(t, i)
			loaded, _ := snapshotRoundTrip(t, ens, SnapshotMeta{})
			if got, want := fingerprintOf(t, loaded), ensembleFingerprints[cfg.name]; got != want {
				t.Fatalf("fingerprint from loaded snapshot = %s, pinned %s", got, want)
			}
		})
	}
}

// TestSnapshotFileRoundTrip covers the file helpers, including the
// tmp+rename atomicity path.
func TestSnapshotFileRoundTrip(t *testing.T) {
	g, ens := sampleEnsembleForIndex(t, 29, 24, 60, 2)
	path := filepath.Join(t.TempDir(), "oracle.snap")
	if err := WriteSnapshotFile(path, ens, SnapshotMeta{GraphEdges: g.M()}); err != nil {
		t.Fatal(err)
	}
	loaded, meta, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.GraphNodes != g.N() || meta.GraphEdges != g.M() || len(loaded.Trees) != 2 {
		t.Fatalf("loaded meta %+v trees %d", meta, len(loaded.Trees))
	}
	if _, _, err := ReadSnapshotFile(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Fatal("missing file loaded")
	}
	// No stray temp files left next to the snapshot.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir holds %d entries, want 1", len(entries))
	}
}

// TestWriteSnapshotRejectsBadEnsembles covers the save-side guards: an
// unloadable snapshot must never be written.
func TestWriteSnapshotRejectsBadEnsembles(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, nil, SnapshotMeta{}); err == nil {
		t.Fatal("nil ensemble snapshotted")
	}
	if err := WriteSnapshot(&buf, &Ensemble{}, SnapshotMeta{}); err == nil {
		t.Fatal("empty ensemble snapshotted")
	}
	invalid := &Tree{
		Parent:     []int32{-1, 0},
		EdgeWeight: []float64{0, -1}, // negative weight: Validate must catch
		Center:     []graph.Node{0, 0},
		Level:      []int32{1, 0},
		Leaf:       []int32{1},
	}
	if err := WriteSnapshot(&buf, &Ensemble{Trees: []*Tree{invalid}}, SnapshotMeta{}); err == nil {
		t.Fatal("structurally invalid tree snapshotted")
	}
	_, e1 := sampleEnsembleForIndex(t, 33, 10, 20, 1)
	_, e2 := sampleEnsembleForIndex(t, 34, 12, 24, 1)
	mixed := &Ensemble{Trees: []*Tree{e1.Trees[0], e2.Trees[0]}}
	if err := WriteSnapshot(&buf, mixed, SnapshotMeta{}); err == nil {
		t.Fatal("mismatched node counts snapshotted")
	}
	if err := WriteSnapshot(&buf, e1, SnapshotMeta{GraphEdges: -1}); err == nil {
		t.Fatal("negative edge count snapshotted")
	}
}

// TestReadSnapshotHostileInput pins the parser's rejection paths
// deterministically (the fuzz target explores beyond them): bad magic,
// unknown versions, truncations at every boundary, corrupt checksums,
// headers declaring more than the file holds, and trees that break the
// layout contract all error out without panic.
func TestReadSnapshotHostileInput(t *testing.T) {
	_, ens := sampleEnsembleForIndex(t, 37, 16, 40, 2)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, ens, SnapshotMeta{GraphEdges: 40}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, _, err := ReadSnapshot(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, _, err := ReadSnapshot(good[:12]); err == nil {
		t.Fatal("header stub accepted")
	}
	for _, cut := range []int{len(good) - 1, len(good) - 8, len(good) / 2, 17, 40} {
		if _, _, err := ReadSnapshot(good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	mutate := func(name string, f func(b []byte)) {
		b := append([]byte(nil), good...)
		f(b)
		if _, _, err := ReadSnapshot(b); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	mutate("bad magic", func(b []byte) { b[0] = 'X' })
	mutate("future version", func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 99) })
	mutate("zero sections", func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 0) })
	mutate("huge section count", func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 1<<30) })
	mutate("flipped payload byte", func(b []byte) { b[len(b)/2] ^= 0x40 })
	mutate("flipped checksum", func(b []byte) { b[len(b)-1] ^= 1 })
	mutate("section out of bounds", func(b []byte) {
		binary.LittleEndian.PutUint64(b[snapshotHeaderLen+8:], 1<<40)
		fixChecksum(b)
	})
	mutate("unaligned section", func(b []byte) {
		off := binary.LittleEndian.Uint64(b[snapshotHeaderLen+8:])
		binary.LittleEndian.PutUint64(b[snapshotHeaderLen+8:], off+4)
		fixChecksum(b)
	})
	mutate("huge tree count", func(b []byte) {
		metaOff := binary.LittleEndian.Uint64(b[snapshotHeaderLen+8:])
		binary.LittleEndian.PutUint64(b[metaOff+16:], 1<<50)
		fixChecksum(b)
	})
	mutate("zero graph nodes", func(b []byte) {
		metaOff := binary.LittleEndian.Uint64(b[snapshotHeaderLen+8:])
		binary.LittleEndian.PutUint64(b[metaOff:], 0)
		fixChecksum(b)
	})
	// A sound tree that breaks the layout contract fails, naming the tree.
	// WriteSnapshot refuses one, so tree 1's record is overwritten in place.
	treesOff := int(binary.LittleEndian.Uint64(good[snapshotHeaderLen+snapshotSectionLen+8:]))
	tree1Off := treesOff + treeRecordSize(ens.Trees[0].NumNodes(), len(ens.Trees[0].Leaf))
	for name, bad := range map[string]*Tree{
		"non-uniform": perturbLeafEdge(ens.Trees[1], 5),
		"permuted":    permuteTree(ens.Trees[1], par.NewRNG(38)),
	} {
		b := append([]byte(nil), good...)
		putTreeRecord(b, tree1Off, bad)
		fixChecksum(b)
		if _, _, err := ReadSnapshot(b); err == nil || !strings.Contains(err.Error(), "tree 1 invalid") {
			t.Fatalf("%s tree: ReadSnapshot error %v, want one naming tree 1", name, err)
		}
	}
}

// fixChecksum recomputes the trailer so a structural mutation is tested on
// its own merits rather than masked by the checksum gate.
func fixChecksum(b []byte) {
	binary.LittleEndian.PutUint64(b[len(b)-8:], crc64.Checksum(b[:len(b)-8], snapshotCRC))
}

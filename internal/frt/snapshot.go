package frt

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"

	"parmbf/internal/graph"
)

// This file is the persistence tier of the serving pipeline: a versioned
// binary snapshot of a sampled ensemble, so a serving replica cold-starts by
// loading flat arrays instead of re-running the whole hop-set → H → oracle →
// BuildTree pipeline. The layout (all integers little-endian):
//
//	[0,  8)  magic "PMBFSNAP"
//	[8, 12)  format version (uint32, currently 1)
//	[12,16)  section count (uint32)
//	[16, …)  section table: count × {id uint32, pad uint32, offset uint64,
//	         length uint64}
//	…        section payloads, 8-byte aligned, in table order
//	[-8, …)  crc64-ECMA checksum of every preceding byte
//
// Sections of version 1:
//
//	id 1 (meta):  graphNodes uint64, graphEdges uint64, treeCount uint64
//	id 2 (trees): treeCount tree records back to back, each
//	              {numNodes uint32, numLeaves uint32, betaBits uint64}
//	              followed by the flat arrays Parent, Level, Center (int32,
//	              each padded to 8 bytes), EdgeWeight (float64 bits) and
//	              Leaf (int32, padded to 8 bytes)
//
// The section table carries explicit offsets and lengths and every array is
// 8-byte aligned, so a reader may mmap the file and slice sections in place;
// ReadSnapshot copies into Go slices (no unsafe aliasing) but allocates only
// in step with bytes actually present — a hostile header declaring huge
// counts is rejected before any allocation proportional to the declaration.
// Unknown section ids are skipped, so later versions can append sections
// without breaking version-1 readers.

const (
	snapshotMagic   = "PMBFSNAP"
	snapshotVersion = 1

	secMeta  = 1
	secTrees = 2

	// maxSnapshotSections bounds the declared section count: version 1
	// defines two sections, and even generous forward compatibility does not
	// need more than a handful.
	maxSnapshotSections = 16

	snapshotHeaderLen  = 16
	snapshotSectionLen = 24
	snapshotMetaLen    = 24
	// treeRecordHeaderLen is the fixed prefix of one serialised tree; the
	// smallest possible record, so declaredTrees > sectionLen/16 fails fast.
	treeRecordHeaderLen = 16
)

var snapshotCRC = crc64.MakeTable(crc64.ECMA)

// SnapshotMeta is the graph-shape metadata carried alongside the ensemble —
// what a serving replica needs for its /stats endpoint without ever loading
// the graph itself.
type SnapshotMeta struct {
	// GraphNodes is the embedded node count (equals the leaf count of every
	// tree; WriteSnapshot fills it in from the ensemble).
	GraphNodes int
	// GraphEdges is the edge count of the source graph, carried verbatim.
	GraphEdges int
}

func align8(n int) int { return (n + 7) &^ 7 }

// treeRecordSize returns the serialised size of one tree record.
func treeRecordSize(numNodes, numLeaves int) int {
	return treeRecordHeaderLen +
		3*align8(4*numNodes) + // Parent, Level, Center
		8*numNodes + // EdgeWeight
		align8(4*numLeaves) // Leaf
}

// WriteSnapshot serialises the ensemble and meta into the snapshot format.
// Every tree is validated first: a snapshot on disk must always load, so
// structural defects fail the save, not some later cold start. The written
// bytes are a pure function of the ensemble, and ReadSnapshot restores the
// trees bit-for-bit (Beta included), so fixed-seed ensemble fingerprints are
// reproducible from a loaded snapshot.
func WriteSnapshot(w io.Writer, ens *Ensemble, meta SnapshotMeta) error {
	if ens == nil || len(ens.Trees) == 0 {
		return fmt.Errorf("frt: cannot snapshot an empty ensemble")
	}
	n := len(ens.Trees[0].Leaf)
	treesLen := 0
	for i, t := range ens.Trees {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("frt: snapshot tree %d: %w", i, err)
		}
		if len(t.Leaf) != n {
			return fmt.Errorf("frt: snapshot tree %d embeds %d nodes, tree 0 embeds %d", i, len(t.Leaf), n)
		}
		treesLen += treeRecordSize(t.NumNodes(), len(t.Leaf))
	}
	meta.GraphNodes = n
	if meta.GraphEdges < 0 {
		return fmt.Errorf("frt: negative edge count %d", meta.GraphEdges)
	}

	tableLen := 2 * snapshotSectionLen
	metaOff := align8(snapshotHeaderLen + tableLen)
	treesOff := metaOff + snapshotMetaLen // 24 bytes keeps 8-alignment
	total := treesOff + treesLen + 8      // + checksum trailer

	buf := make([]byte, total)
	copy(buf, snapshotMagic)
	le := binary.LittleEndian
	le.PutUint32(buf[8:], snapshotVersion)
	le.PutUint32(buf[12:], 2)
	putSection := func(i int, id uint32, off, length int) {
		b := buf[snapshotHeaderLen+i*snapshotSectionLen:]
		le.PutUint32(b, id)
		le.PutUint64(b[8:], uint64(off))
		le.PutUint64(b[16:], uint64(length))
	}
	putSection(0, secMeta, metaOff, snapshotMetaLen)
	putSection(1, secTrees, treesOff, treesLen)

	le.PutUint64(buf[metaOff:], uint64(meta.GraphNodes))
	le.PutUint64(buf[metaOff+8:], uint64(meta.GraphEdges))
	le.PutUint64(buf[metaOff+16:], uint64(len(ens.Trees)))

	off := treesOff
	for _, t := range ens.Trees {
		off = putTreeRecord(buf, off, t)
	}
	if off != treesOff+treesLen {
		return fmt.Errorf("frt: snapshot size accounting bug: wrote %d, declared %d", off-treesOff, treesLen)
	}
	le.PutUint64(buf[total-8:], crc64.Checksum(buf[:total-8], snapshotCRC))
	_, err := w.Write(buf)
	return err
}

func putTreeRecord(buf []byte, off int, t *Tree) int {
	le := binary.LittleEndian
	le.PutUint32(buf[off:], uint32(t.NumNodes()))
	le.PutUint32(buf[off+4:], uint32(len(t.Leaf)))
	le.PutUint64(buf[off+8:], math.Float64bits(t.Beta))
	off += treeRecordHeaderLen
	putI32 := func(src []int32) {
		for i, v := range src {
			le.PutUint32(buf[off+4*i:], uint32(v))
		}
		off += align8(4 * len(src))
	}
	putI32(t.Parent)
	putI32(t.Level)
	putI32(t.Center) // graph.Node = int32
	for i, w := range t.EdgeWeight {
		le.PutUint64(buf[off+8*i:], math.Float64bits(w))
	}
	off += 8 * len(t.EdgeWeight)
	putI32(t.Leaf)
	return off
}

// ReadSnapshot parses and validates a snapshot. It is hardened against
// hostile bytes (the FuzzReadSnapshot target): malformed, truncated, or
// corrupted input — including a failed whole-file checksum — yields an
// error, never a panic, and no allocation ever exceeds O(len(data)). Every
// tree of an accepted snapshot passes Tree.Validate, so the returned
// ensemble indexes and serves exactly like the freshly built one it was
// saved from.
func ReadSnapshot(data []byte) (*Ensemble, SnapshotMeta, error) {
	var meta SnapshotMeta
	le := binary.LittleEndian
	if len(data) < snapshotHeaderLen+8 {
		return nil, meta, fmt.Errorf("frt: snapshot truncated: %d bytes", len(data))
	}
	if string(data[:8]) != snapshotMagic {
		return nil, meta, fmt.Errorf("frt: bad snapshot magic %q", data[:8])
	}
	if v := le.Uint32(data[8:]); v != snapshotVersion {
		return nil, meta, fmt.Errorf("frt: unsupported snapshot version %d (reader handles %d)", v, snapshotVersion)
	}
	payloadEnd := len(data) - 8
	if want, got := le.Uint64(data[payloadEnd:]), crc64.Checksum(data[:payloadEnd], snapshotCRC); want != got {
		return nil, meta, fmt.Errorf("frt: snapshot checksum mismatch: stored %016x, computed %016x", want, got)
	}
	nsec := int(le.Uint32(data[12:]))
	if nsec < 1 || nsec > maxSnapshotSections {
		return nil, meta, fmt.Errorf("frt: snapshot declares %d sections (limit %d)", nsec, maxSnapshotSections)
	}
	tableEnd := snapshotHeaderLen + nsec*snapshotSectionLen
	if tableEnd > payloadEnd {
		return nil, meta, fmt.Errorf("frt: section table truncated")
	}
	var metaSec, treesSec []byte
	prevEnd := uint64(tableEnd)
	for i := 0; i < nsec; i++ {
		b := data[snapshotHeaderLen+i*snapshotSectionLen:]
		id := le.Uint32(b)
		off, length := le.Uint64(b[8:]), le.Uint64(b[16:])
		if off%8 != 0 || off < prevEnd || length > uint64(payloadEnd) || off > uint64(payloadEnd)-length {
			return nil, meta, fmt.Errorf("frt: section %d (id %d) out of bounds: offset %d length %d", i, id, off, length)
		}
		prevEnd = off + length
		sec := data[off : off+length]
		switch id {
		case secMeta:
			if metaSec != nil {
				return nil, meta, fmt.Errorf("frt: duplicate meta section")
			}
			metaSec = sec
		case secTrees:
			if treesSec != nil {
				return nil, meta, fmt.Errorf("frt: duplicate trees section")
			}
			treesSec = sec
		default:
			// Unknown ids are tolerated for forward compatibility.
		}
	}
	if metaSec == nil || treesSec == nil {
		return nil, meta, fmt.Errorf("frt: snapshot lacks meta or trees section")
	}
	if len(metaSec) != snapshotMetaLen {
		return nil, meta, fmt.Errorf("frt: meta section is %d bytes, want %d", len(metaSec), snapshotMetaLen)
	}
	graphNodes := le.Uint64(metaSec)
	graphEdges := le.Uint64(metaSec[8:])
	treeCount := le.Uint64(metaSec[16:])
	if graphNodes == 0 || graphNodes > math.MaxInt32 {
		return nil, meta, fmt.Errorf("frt: graph node count %d outside (0, 2^31)", graphNodes)
	}
	if graphEdges > math.MaxInt64 {
		return nil, meta, fmt.Errorf("frt: graph edge count overflows")
	}
	if treeCount == 0 || treeCount > uint64(len(treesSec)/treeRecordHeaderLen) {
		return nil, meta, fmt.Errorf("frt: tree count %d impossible for a %d-byte trees section", treeCount, len(treesSec))
	}
	meta.GraphNodes = int(graphNodes)
	meta.GraphEdges = int(graphEdges)

	trees := make([]*Tree, 0, treeCount)
	rest := treesSec
	for ti := uint64(0); ti < treeCount; ti++ {
		t, tail, err := readTreeRecord(rest, int(graphNodes))
		if err != nil {
			return nil, meta, fmt.Errorf("frt: tree %d: %w", ti, err)
		}
		if verr := t.Validate(); verr != nil {
			return nil, meta, fmt.Errorf("frt: tree %d invalid: %v", ti, verr)
		}
		trees = append(trees, t)
		rest = tail
	}
	if len(rest) != 0 {
		return nil, meta, fmt.Errorf("frt: %d trailing bytes after the last tree", len(rest))
	}
	return &Ensemble{Trees: trees}, meta, nil
}

// readTreeRecord decodes one tree record from the front of b, returning the
// remainder. Sizes are checked against the bytes actually present before any
// array is allocated.
func readTreeRecord(b []byte, wantLeaves int) (*Tree, []byte, error) {
	le := binary.LittleEndian
	if len(b) < treeRecordHeaderLen {
		return nil, nil, fmt.Errorf("record header truncated (%d bytes)", len(b))
	}
	numNodes := int(le.Uint32(b))
	numLeaves := int(le.Uint32(b[4:]))
	beta := math.Float64frombits(le.Uint64(b[8:]))
	if numNodes <= 0 || numLeaves <= 0 {
		return nil, nil, fmt.Errorf("non-positive sizes: %d nodes, %d leaves", numNodes, numLeaves)
	}
	if numLeaves != wantLeaves {
		return nil, nil, fmt.Errorf("embeds %d nodes, meta declares %d", numLeaves, wantLeaves)
	}
	if numLeaves > numNodes {
		return nil, nil, fmt.Errorf("more leaves (%d) than tree nodes (%d)", numLeaves, numNodes)
	}
	// numNodes and numLeaves fit int32, so the record size fits int64 with
	// room to spare; the length check below bounds every allocation by input
	// actually present.
	need := treeRecordSize(numNodes, numLeaves)
	if len(b) < need {
		return nil, nil, fmt.Errorf("record truncated: %d bytes of %d", len(b), need)
	}
	off := treeRecordHeaderLen
	getI32 := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(le.Uint32(b[off+4*i:]))
		}
		off += align8(4 * n)
		return out
	}
	t := &Tree{Beta: beta}
	t.Parent = getI32(numNodes)
	t.Level = getI32(numNodes)
	center := getI32(numNodes)
	t.Center = make([]graph.Node, numNodes)
	for i, c := range center {
		t.Center[i] = graph.Node(c)
	}
	t.EdgeWeight = make([]float64, numNodes)
	for i := range t.EdgeWeight {
		t.EdgeWeight[i] = math.Float64frombits(le.Uint64(b[off+8*i:]))
	}
	off += 8 * numNodes
	t.Leaf = getI32(numLeaves)
	return t, b[need:], nil
}

// WriteSnapshotFile saves the ensemble to path via WriteSnapshot, writing
// through a temporary file + rename so a crash mid-save never leaves a
// half-written snapshot where a replica expects a loadable one.
func WriteSnapshotFile(path string, ens *Ensemble, meta SnapshotMeta) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteSnapshot(tmp, ens, meta); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// CreateTemp's 0600 would make the snapshot unreadable by the worker
	// replicas a deployment usually runs under a different user.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadSnapshotFile loads a snapshot saved by WriteSnapshotFile. The whole
// file is read at once (the format is offset-addressed, so an mmap-based
// loader could slice it zero-copy; at the sizes served today one bulk read
// is already milliseconds against the seconds of a pipeline rebuild).
func ReadSnapshotFile(path string) (*Ensemble, SnapshotMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, SnapshotMeta{}, err
	}
	return ReadSnapshot(data)
}

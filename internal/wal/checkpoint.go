package wal

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/tree"
)

// ckptMagic opens every checkpoint file (format version 1).
var ckptMagic = [8]byte{'D', 'F', 'S', 'W', 'C', 'K', 'P', '1'}

// Checkpoint is one graph's full serializable state at an update boundary.
// Capturing one from a published snapshot is a pointer grab — the graph
// version and tree are immutable — so only Encode pays O(n+m).
type Checkpoint struct {
	ID     string
	Seq    uint64 // update count at capture; log records with Seq <= this are covered
	Pseudo int    // pseudo-root vertex ID (tree root)
	Graph  *graph.Persistent
	Tree   *tree.Tree
}

// Encode serializes c into its magic followed by one frame (the log frame
// layout) that fills the rest of the blob.
func (c *Checkpoint) Encode() []byte {
	g := c.Graph
	slots := g.NumVertexSlots()
	out := make([]byte, 0, 64+len(c.ID)+slots/4+g.NumEdges()*4+(c.Pseudo+1)*2)
	out = append(out, ckptMagic[:]...)
	out = openFrame(out)
	out = binary.AppendUvarint(out, uint64(len(c.ID)))
	out = append(out, c.ID...)
	out = binary.AppendUvarint(out, c.Seq)
	out = binary.AppendUvarint(out, uint64(slots))
	out = binary.AppendUvarint(out, uint64(c.Pseudo))
	// Liveness bitmap over the vertex slots.
	bitmap := make([]byte, (slots+7)/8)
	for v := 0; v < slots; v++ {
		if g.IsVertex(v) {
			bitmap[v>>3] |= 1 << uint(v&7)
		}
	}
	out = append(out, bitmap...)
	// Adjacency: per-slot degree, then the concatenated sorted rows (a
	// hole's row is empty).
	out = binary.AppendUvarint(out, uint64(g.NumEdges()))
	for v := 0; v < slots; v++ {
		out = binary.AppendUvarint(out, uint64(len(g.Row(v))))
	}
	for v := 0; v < slots; v++ {
		for _, w := range g.Row(v) {
			out = binary.AppendUvarint(out, uint64(w))
		}
	}
	// DFS tree: parent per slot 0..Pseudo (zigzag; tree.None encodes -1).
	for v := 0; v <= c.Pseudo; v++ {
		out = binary.AppendVarint(out, int64(c.Tree.Parent[v]))
	}
	return sealFrame(out, len(ckptMagic))
}

// DecodeCheckpoint parses and validates a checkpoint blob, reconstructing
// the persistent graph and DFS tree. Any structural problem — bad magic,
// CRC mismatch, inconsistent adjacency, an invalid tree — fails loudly
// with an error wrapping ErrCorrupt.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic) || [8]byte(data[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	}
	// The frame must fill the file exactly. It has no maxFrame cap: a large
	// graph's checkpoint may exceed any single log record's bound.
	p, n, err := readFrame(data[len(ckptMagic):], math.MaxUint32)
	if err != nil {
		return nil, err
	}
	if n != len(data)-len(ckptMagic) {
		return nil, fmt.Errorf("%w: checkpoint length %d does not match file", ErrCorrupt, n)
	}
	next := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated checkpoint varint", ErrCorrupt)
		}
		p = p[n:]
		return v, nil
	}
	idLen, err := next()
	if err != nil || idLen > uint64(len(p)) {
		return nil, fmt.Errorf("%w: bad checkpoint ID", ErrCorrupt)
	}
	c := &Checkpoint{ID: string(p[:idLen])}
	p = p[idLen:]
	if c.Seq, err = next(); err != nil {
		return nil, err
	}
	// Every slot carries at least one degree byte and every parent entry at
	// least one varint byte, so the remaining payload bounds both counts
	// before anything is allocated from them.
	slots64, err := next()
	if err != nil || slots64 > uint64(len(p)) {
		return nil, fmt.Errorf("%w: bad slot count", ErrCorrupt)
	}
	slots := int(slots64)
	pseudo64, err := next()
	if err != nil || pseudo64 < slots64 || pseudo64 >= uint64(len(p)) {
		return nil, fmt.Errorf("%w: bad pseudo root", ErrCorrupt)
	}
	c.Pseudo = int(pseudo64)
	if len(p) < (slots+7)/8 {
		return nil, fmt.Errorf("%w: truncated liveness bitmap", ErrCorrupt)
	}
	bitmap := p[:(slots+7)/8]
	p = p[(slots+7)/8:]
	alive := func(v int) bool { return bitmap[v>>3]&(1<<uint(v&7)) != 0 }

	m64, err := next()
	if err != nil || m64 > 1<<40 {
		return nil, fmt.Errorf("%w: bad edge count", ErrCorrupt)
	}
	// Each row entry takes at least one byte, which bounds every degree
	// and their sum by the remaining payload before the rows are allocated.
	deg := make([]int, slots)
	total := 0
	for v := range deg {
		d, err := next()
		if err != nil {
			return nil, err
		}
		if d > uint64(len(p)) {
			return nil, fmt.Errorf("%w: degree %d of vertex %d overruns the checkpoint", ErrCorrupt, d, v)
		}
		deg[v] = int(d)
		total += int(d)
	}
	if total != 2*int(m64) {
		return nil, fmt.Errorf("%w: degree sum %d != 2m=%d", ErrCorrupt, total, 2*m64)
	}
	if total > len(p) {
		return nil, fmt.Errorf("%w: truncated adjacency", ErrCorrupt)
	}
	// Read the rows straight into one backing array; FromRows rejects holes
	// with edges, self-loops, unsorted or repeated entries, edges to holes
	// and asymmetric entries.
	live := make([]bool, slots)
	rows := make([][]int32, slots)
	back := make([]int32, total)
	for v := range rows {
		live[v] = alive(v)
		rows[v], back = back[:deg[v]:deg[v]], back[deg[v]:]
		for i := range rows[v] {
			w, err := next()
			if err != nil {
				return nil, err
			}
			if w >= uint64(slots) {
				return nil, fmt.Errorf("%w: edge (%d,%d) leaves the vertex set", ErrCorrupt, v, w)
			}
			rows[v][i] = int32(w)
		}
	}
	g, err := graph.FromRows(live, rows)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// DFS tree parents (slots..Pseudo-1 are headroom holes; Pseudo roots).
	parent := make([]int, c.Pseudo+1)
	present := make([]bool, c.Pseudo+1)
	for v := 0; v <= c.Pseudo; v++ {
		pv, n := binary.Varint(p)
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated parent array", ErrCorrupt)
		}
		p = p[n:]
		if pv < tree.None || pv > int64(c.Pseudo) {
			return nil, fmt.Errorf("%w: parent %d out of range", ErrCorrupt, pv)
		}
		parent[v] = int(pv)
		present[v] = (v < slots && alive(v)) || v == c.Pseudo
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing checkpoint bytes", ErrCorrupt, len(p))
	}
	t, err := tree.Build(c.Pseudo, parent, present)
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint tree: %v", ErrCorrupt, err)
	}
	c.Graph = g
	c.Tree = t
	return c, nil
}

// ckptName returns the filename for id's checkpoint at seq. The ID is
// hex-encoded so arbitrary GraphIDs stay filename-safe and unambiguous.
func ckptName(id string, seq uint64) string {
	return fmt.Sprintf("ck-%s-%016x.ckpt", hex.EncodeToString([]byte(id)), seq)
}

// parseCkptName inverts ckptName.
func parseCkptName(name string) (id string, seq uint64, ok bool) {
	if !strings.HasPrefix(name, "ck-") || !strings.HasSuffix(name, ".ckpt") {
		return "", 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, "ck-"), ".ckpt")
	i := strings.LastIndexByte(body, '-')
	if i < 0 {
		return "", 0, false
	}
	raw, err := hex.DecodeString(body[:i])
	if err != nil {
		return "", 0, false
	}
	seq, err = strconv.ParseUint(body[i+1:], 16, 64)
	if err != nil {
		return "", 0, false
	}
	return string(raw), seq, true
}

// WriteCheckpoint durably writes c into dir (replaceFile: temp file, fsync,
// rename, directory fsync) and then removes any older checkpoint files for
// the same graph. Write I/O routes through inj.
func WriteCheckpoint(dir string, c *Checkpoint, inj *Injector) error {
	if err := replaceFile(dir, ckptName(c.ID, c.Seq), c.Encode(), inj); err != nil {
		return fmt.Errorf("wal: checkpoint %q: %w", c.ID, err)
	}
	// The new checkpoint supersedes every older one for this graph.
	for _, e := range readDirNames(dir) {
		if eid, seq, ok := parseCkptName(e); ok && eid == c.ID && seq != c.Seq {
			os.Remove(filepath.Join(dir, e))
		}
	}
	return nil
}

// DeleteCheckpoints removes every checkpoint file for id.
func DeleteCheckpoints(dir, id string) {
	for _, e := range readDirNames(dir) {
		if eid, _, ok := parseCkptName(e); ok && eid == id {
			os.Remove(filepath.Join(dir, e))
		}
	}
	syncDir(dir)
}

// LoadCheckpoints reads the newest valid checkpoint of every graph in dir.
// A graph whose newest checkpoint is corrupt falls back to the next newest
// (possible only if the newer write was torn before cleanup); a graph with
// checkpoint files but no valid one fails loudly.
func LoadCheckpoints(dir string) (map[string]*Checkpoint, error) {
	bySeq := map[string][]uint64{}
	for _, e := range readDirNames(dir) {
		if id, seq, ok := parseCkptName(e); ok {
			bySeq[id] = append(bySeq[id], seq)
		}
	}
	out := make(map[string]*Checkpoint, len(bySeq))
	for id, seqs := range bySeq {
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
		var lastErr error
		for _, seq := range seqs {
			var c *Checkpoint
			data, err := os.ReadFile(filepath.Join(dir, ckptName(id, seq)))
			if err == nil {
				c, err = DecodeCheckpoint(data)
			}
			if err == nil && c.ID != id {
				err = fmt.Errorf("%w: checkpoint file/ID mismatch", ErrCorrupt)
			}
			if err != nil {
				lastErr = err
				continue
			}
			out[id] = c
			break
		}
		if out[id] == nil {
			return nil, fmt.Errorf("wal: graph %q: no valid checkpoint: %w", id, lastErr)
		}
	}
	return out, nil
}

// replaceFile durably replaces dir/name with data — the one way this
// package rewrites a whole file. It writes data to tempName(name) through
// inj (one write and one fsync operation), closes it, renames it over name
// and fsyncs dir, so a crash leaves the old file or the new one, plus at
// worst the temp file, which LockDir deletes.
func replaceFile(dir, name string, data []byte, inj *Injector) error {
	tmp := filepath.Join(dir, tempName(name))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = inj.write(f, data); err == nil {
		err = inj.sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// tempName is the one temp file name replaceFile writes name through.
func tempName(name string) string { return "." + name + ".tmp" }

// removeTemps deletes replaceFile's leftover temp files in dir, and the
// randomly suffixed ones (routes.wal.tmp-*) route-log compaction wrote
// before it used replaceFile. Only dir's lock holder may call it: another
// writer's temp file could be in flight.
func removeTemps(dir string) {
	for _, e := range readDirNames(dir) {
		base := strings.TrimSuffix(strings.TrimPrefix(e, "."), ".tmp")
		_, _, ckpt := parseCkptName(base)
		if strings.HasPrefix(e, RoutesFile+".tmp-") ||
			(e == tempName(base) && (ckpt || base == RoutesFile)) {
			os.Remove(filepath.Join(dir, e))
		}
	}
}

func readDirNames(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// syncDir best-effort fsyncs a directory (rename/unlink durability).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

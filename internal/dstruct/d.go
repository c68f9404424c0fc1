package dstruct

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/lca"
	"repro/internal/pram"
	"repro/internal/tree"
)

// D answers lowest/highest-edge queries against a base tree T plus an
// accumulated patch set.
type D struct {
	T   *tree.Tree
	LCA *lca.Index

	mach *pram.Machine // accounting machine for maintenance charges; nil = uncharged

	// key holds D's relocatable order labels: key[v] is v's position in T's
	// post-order (-1 for holes), and every neighbor row is sorted by the key
	// of its entries. The labels lag the tree on purpose — Update repositions
	// moved entries by binary-searching rows under the previous labels before
	// refreshing key from the new tree's numbering — so query code must
	// compare keys, never tree.Post directly.
	key []int

	nbr   [][]int32 // nbr[v] = neighbors of v sorted by key (base graph only)
	byKey []int32   // build scratch: the tree's vertices in key order

	inserted   map[int][]int           // patch: inserted-edge adjacency
	deletedE   map[graph.Edge]struct{} // patch: deleted base edges (canonical)
	patchVerts map[int]struct{}        // vertices with no base numbering
	numPatches int

	lastMaint   Maintenance
	incremental int64 // Update calls that took the incremental path
	rebuilds    int64 // Rebuild calls (direct or Update fallbacks)
}

// Stats aggregates search-effort counters. The query path never mutates D:
// every EdgeToWalk-family call accumulates into a caller-supplied per-call
// Stats, so a built D serves concurrent queries from many goroutines as
// long as each passes its own accumulator.
type Stats struct {
	Searches    int64 // per-source per-run binary searches (fast path)
	ScanSteps   int64 // filtered-scan steps (slow path, Case B and skip-deleted)
	CaseB       int64 // searches where the source was an ancestor of the run
	PatchScans  int64 // patch-list entries examined
	WalkQueries int64 // EdgeToWalk-family invocations
	RunsSplit   int64 // total base-tree fragments across all walk queries
}

// Add accumulates another Stats (a per-call accumulator being rolled into
// a running total) into s.
func (s *Stats) Add(o Stats) {
	s.Searches += o.Searches
	s.ScanSteps += o.ScanSteps
	s.CaseB += o.CaseB
	s.PatchScans += o.PatchScans
	s.WalkQueries += o.WalkQueries
	s.RunsSplit += o.RunsSplit
}

// Build constructs D over graph g and its DFS tree t, charging the machine
// the paper's preprocessing cost (Theorem 8: O(log n) depth on m
// processors; per-vertex parallel merge sort of N(v)). Construction itself
// is one sequential O(n+m) bucket pass. mach may be nil, in which case
// nothing is charged.
func Build(g graph.Adjacency, t *tree.Tree, mach *pram.Machine) *D {
	d := &D{
		inserted:   make(map[int][]int),
		deletedE:   make(map[graph.Edge]struct{}),
		patchVerts: make(map[int]struct{}),
	}
	d.build(g, t, mach)
	return d
}

// Rebuild reconstructs D over (g, t) in place, discarding all patches,
// reusing the existing neighbor rows and building a fresh LCA index. It is
// the ground-up maintenance step of the fully dynamic maintainer (now the
// high-churn fallback of Update). Queries answered before Rebuild returns
// are invalid.
func (d *D) Rebuild(g graph.Adjacency, t *tree.Tree, mach *pram.Machine) {
	clear(d.inserted)
	clear(d.deletedE)
	clear(d.patchVerts)
	d.numPatches = 0
	d.rebuilds++
	d.lastMaint = MaintenanceRebuild
	d.build(g, t, mach)
}

func (d *D) build(g graph.Adjacency, t *tree.Tree, mach *pram.Machine) {
	n := t.N()
	d.T = t
	d.mach = mach
	d.LCA = lca.Build(t)
	d.key = t.PostInto(d.key)
	if cap(d.nbr) >= n {
		d.nbr = d.nbr[:n]
	} else {
		d.nbr = make([][]int32, n)
	}
	slots := min(g.NumVertexSlots(), n)
	// Empty every row, giving the rows that must grow capped windows of one
	// shared backing array, and list the tree's vertices in key order.
	d.byKey = slices.Grow(d.byKey[:0], t.Live())[:t.Live()]
	maxDeg, grow := 0, 0
	for v := range d.nbr {
		d.nbr[v] = d.nbr[v][:0]
		if d.key[v] >= 0 {
			d.byKey[d.key[v]] = int32(v)
		}
		if v < slots { // Degree is 0 for a non-vertex
			deg := g.Degree(v)
			maxDeg = max(maxDeg, deg)
			if cap(d.nbr[v]) < deg {
				grow += deg
			}
		}
	}
	backing := make([]int32, grow)
	for v := 0; v < slots && grow > 0; v++ {
		if deg := g.Degree(v); cap(d.nbr[v]) < deg {
			d.nbr[v], backing = backing[:0:deg], backing[deg:]
		}
	}
	// Bucket pass: appending each vertex, in key order, to the rows of its
	// neighbors leaves every row sorted by key with no comparison sort.
	var scratch []int
	for _, w := range d.byKey {
		if int(w) >= slots || !g.IsVertex(int(w)) {
			continue
		}
		scratch = g.Neighbors(int(w), scratch)
		for _, u := range scratch {
			if u < slots {
				d.nbr[u] = append(d.nbr[u], w)
			}
		}
	}
	if mach != nil {
		// One parallel merge sort per adjacency list, all in parallel on m
		// processors: depth log(max degree), work sum |N(v)| log |N(v)|.
		mach.Charge(pram.Log2Ceil(maxDeg), int64(2*g.NumEdges())*pram.Log2Ceil(maxDeg))
	}
}

// SizeWords returns the memory footprint of D in words, for the O(m) space
// audit of Theorem 8.
func (d *D) SizeWords() int64 {
	w := int64(len(d.key))
	for _, row := range d.nbr {
		w += int64(len(row))
	}
	for _, row := range d.inserted {
		w += int64(len(row)) + 1
	}
	w += int64(len(d.deletedE)) * 2
	w += int64(len(d.patchVerts))
	return w
}

// NumPatches returns how many updates have been patched in since Build.
func (d *D) NumPatches() int { return d.numPatches }

// ResetPatches discards all accumulated patches, returning D to its
// as-built state. The fault-tolerant algorithm calls this between update
// batches (Theorem 14 reuses the original structure for every batch); the
// maps are cleared and reused, as in Rebuild, so per-batch resets do not
// reallocate.
func (d *D) ResetPatches() {
	clear(d.inserted)
	clear(d.deletedE)
	clear(d.patchVerts)
	d.numPatches = 0
}

// IsPatchVertex reports whether v was inserted after Build (it has no
// base-tree numbering).
func (d *D) IsPatchVertex(v int) bool {
	_, ok := d.patchVerts[v]
	return ok
}

// PatchInsertEdge records edge (u,v) inserted after Build.
func (d *D) PatchInsertEdge(u, v int) {
	d.inserted[u] = append(d.inserted[u], v)
	d.inserted[v] = append(d.inserted[v], u)
	d.numPatches++
}

// PatchDeleteEdge records the deletion of edge (u,v).
func (d *D) PatchDeleteEdge(u, v int) {
	if d.removeInserted(u, v) {
		d.removeInserted(v, u)
	} else {
		d.deletedE[graph.Edge{U: u, V: v}.Canon()] = struct{}{}
	}
	d.numPatches++
}

// PatchInsertVertex records a vertex inserted after Build, with its edges.
func (d *D) PatchInsertVertex(v int, neighbors []int) {
	d.patchVerts[v] = struct{}{}
	d.inserted[v] = append([]int(nil), neighbors...)
	for _, w := range neighbors {
		d.inserted[w] = append(d.inserted[w], v)
	}
	d.numPatches++
}

// PatchDeleteVertex records the deletion of v along with all its incident
// edges. neighbors must be v's neighbors at deletion time. The vertex's
// patch state is fully retired: v stops being a patch vertex, so a later
// insertion reusing the slot starts clean instead of inheriting it.
func (d *D) PatchDeleteVertex(v int, neighbors []int) {
	for _, w := range neighbors {
		if d.removeInserted(v, w) {
			d.removeInserted(w, v)
		} else {
			d.deletedE[graph.Edge{U: v, V: w}.Canon()] = struct{}{}
		}
	}
	delete(d.patchVerts, v)
	d.numPatches++
}

// removeInserted removes v from u's inserted-edge row, deleting the row's
// map entry when it empties so no stale empty rows linger (queries treat a
// non-empty inserted map as "has patches").
func (d *D) removeInserted(u, v int) bool {
	row := d.inserted[u]
	for i, w := range row {
		if w == v {
			if len(row) == 1 {
				delete(d.inserted, u)
			} else {
				row[i] = row[len(row)-1]
				d.inserted[u] = row[:len(row)-1]
			}
			return true
		}
	}
	return false
}

func (d *D) edgeDeleted(u, v int) bool {
	_, ok := d.deletedE[graph.Edge{U: u, V: v}.Canon()]
	return ok
}

// hasBaseNumbering reports whether v is a vertex of the base tree. It runs
// once per walk vertex and per source, so the patch-vertex lookup is
// skipped in the common case of a D holding no patch vertices.
func (d *D) hasBaseNumbering(v int) bool {
	if v >= d.T.N() || !d.T.Present(v) {
		return false
	}
	return len(d.patchVerts) == 0 || !d.IsPatchVertex(v)
}

// Hit is a query result: graph edge (U, Z) with Z at index ZPos on the
// queried walk.
type Hit struct {
	U, Z, ZPos int
}

func (h Hit) String() string { return fmt.Sprintf("(%d->%d@%d)", h.U, h.Z, h.ZPos) }

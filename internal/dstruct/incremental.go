package dstruct

// Incremental maintenance of D under the fully dynamic maintainer.
//
// After a reroot only the vertices inside the moved subtrees change
// *relative* post-order: the tree builder orders every vertex's children by
// ID, so two vertices whose root paths are untouched by the update keep the
// same LCA, the same child-toward vertices at it, and hence the same
// relative position in the new numbering. A neighbor row therefore stays
// sorted except where it names a moved vertex, and refreshing D reduces to
// repositioning exactly those entries — O(Σ deg(moved) · log) row work plus
// one O(n) relabel pass — instead of refilling every row (the O(n+m) bucket
// pass of a ground-up Rebuild).
//
// The order keys make this safe: rows are sorted by D's own key array, a
// lagging copy of the tree's post-order labels. Update removes moved and
// deleted entries by binary search under the *previous* labels, bulk-refreshes
// the keys from the new numbering, then re-inserts the moved and patched
// entries under the new labels.

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/tree"
)

// Maintenance identifies which path serviced the most recent maintenance
// operation (Update or Rebuild).
type Maintenance int

const (
	// MaintenanceNone: no maintenance since Build.
	MaintenanceNone Maintenance = iota
	// MaintenanceIncremental: Update repositioned only moved/patched entries.
	MaintenanceIncremental
	// MaintenanceRebuild: a ground-up Rebuild (direct call or churn fallback).
	MaintenanceRebuild
)

func (m Maintenance) String() string {
	switch m {
	case MaintenanceIncremental:
		return "incremental"
	case MaintenanceRebuild:
		return "rebuild"
	}
	return "none"
}

// UpdateDelta describes how one applied update changed the DFS tree, for
// Update's incremental maintenance.
type UpdateDelta struct {
	// Moved lists the vertices whose root path changed: the old-tree vertex
	// sets of every rerooted or re-hung subtree, plus newly attached
	// vertices (reroot.Engine.Moved reports exactly this set). Duplicates
	// are harmless. Deleted vertices must not appear.
	Moved []int
	// SameTree declares that the tree object and its numbering are exactly
	// as they were when D was last maintained (a back-edge insert or delete):
	// Update then skips the relabel pass and only absorbs the patch set.
	SameTree bool
}

// churnFallbackDen tunes Update's fallback: when the estimated incremental
// row work (moved degrees plus patch entries) exceeds (2m+n)/churnFallbackDen
// — a constant fraction of what a ground-up Rebuild touches — Update rebuilds
// instead, so the worst case never regresses past the paper's m-processor
// rebuild.
const churnFallbackDen = 2

// Update refreshes D to answer for graph g and tree t after one update whose
// graph delta was recorded through the Patch* methods. It absorbs the patch
// set into the base rows, repositions the entries naming moved vertices, and
// relabels the order keys from t's numbering, leaving D exactly as a fresh
// Build(g, t) would — with no accumulated patches — at a cost proportional
// to the moved set rather than to m. High-churn updates fall back to
// Rebuild. It reports whether the incremental path was taken.
func (d *D) Update(g *graph.Persistent, t *tree.Tree, delta UpdateDelta) bool {
	cost := 2 * len(d.deletedE)
	for _, row := range d.inserted {
		cost += len(row)
	}
	for _, w := range delta.Moved {
		cost += g.Degree(w) + 1
	}
	if cost > (2*g.NumEdges()+t.N())/churnFallbackDen {
		d.Rebuild(g, t, d.mach)
		return false
	}

	// Phase 1 — removals under the previous labels. Rows are still sorted by
	// the old keys, so each removal is one binary search; entries that were
	// never in the base rows (edges inserted this update) miss benignly.
	var scratch []int
	for _, w := range delta.Moved {
		if d.IsPatchVertex(w) || w >= len(d.key) || d.key[w] < 0 {
			continue // attached this update: not in any base row yet
		}
		scratch = g.Neighbors(w, scratch)
		for _, u := range scratch {
			d.removeEntry(u, w)
		}
	}
	for e := range d.deletedE {
		d.removeEntry(e.U, e.V)
		d.removeEntry(e.V, e.U)
	}

	// Phase 2 — relabel. Unmoved vertices keep their relative order, so
	// after the removals every row is sorted under the new labels too.
	d.T = t
	if !delta.SameTree {
		n := t.N()
		d.key = t.PostInto(d.key)
		if cap(d.nbr) >= n {
			grown := d.nbr[:n]
			for v := len(d.nbr); v < n; v++ {
				grown[v] = grown[v][:0]
			}
			d.nbr = grown
		} else {
			old := d.nbr
			d.nbr = make([][]int32, n)
			copy(d.nbr, old)
		}
		for v := range d.nbr {
			if d.key[v] < 0 && len(d.nbr[v]) > 0 {
				d.nbr[v] = d.nbr[v][:0] // v left the tree: retire its row
			}
		}
	}

	// Phase 3 — insertions under the new labels. Rows of vertices inserted
	// this update are built wholesale; then every patched-in edge and every
	// moved entry is placed by binary search (idempotent: an entry already
	// present is left alone, so the passes may overlap).
	for v := range d.patchVerts {
		scratch = g.Neighbors(v, scratch)
		row := d.nbr[v][:0]
		for _, w := range scratch {
			row = append(row, int32(w))
		}
		slices.SortFunc(row, func(a, b int32) int { return d.key[a] - d.key[b] })
		d.nbr[v] = row
	}
	for u, row := range d.inserted {
		for _, v := range row {
			d.insertEntry(u, v)
		}
	}
	for _, w := range delta.Moved {
		if w >= len(d.key) || d.key[w] < 0 {
			continue
		}
		scratch = g.Neighbors(w, scratch)
		for _, u := range scratch {
			d.insertEntry(u, w)
		}
	}

	clear(d.inserted)
	clear(d.deletedE)
	clear(d.patchVerts)
	d.numPatches = 0
	if d.mach != nil {
		// Model cost of the incremental pass: the repositionings are
		// independent binary searches, one O(log n)-depth EREW step over
		// cost entries — the incremental analog of Rebuild's Theorem 8
		// charge, which this path replaces.
		lg := pram.Log2Ceil(t.Live() + 1)
		d.mach.Charge(lg, int64(cost)*lg)
	}
	d.lastMaint = MaintenanceIncremental
	d.incremental++
	return true
}

// removeEntry deletes w from u's neighbor row, located by binary search on
// w's current key. A miss (w never entered the row) is a no-op.
func (d *D) removeEntry(u, w int) {
	if u < 0 || u >= len(d.nbr) {
		return
	}
	row := d.nbr[u]
	i := lowerBound(row, d.key[w], d.key)
	if i < len(row) && int(row[i]) == w {
		copy(row[i:], row[i+1:])
		d.nbr[u] = row[:len(row)-1]
	}
}

// insertEntry places v into u's neighbor row at its key position. Already
// present entries are left alone, making insertion idempotent.
func (d *D) insertEntry(u, v int) {
	if u < 0 || u >= len(d.nbr) || d.key[v] < 0 || d.key[u] < 0 {
		return
	}
	row := d.nbr[u]
	i := lowerBound(row, d.key[v], d.key)
	if i < len(row) && int(row[i]) == v {
		return
	}
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = int32(v)
	d.nbr[u] = row
}

// LastMaintenance reports which path serviced the most recent maintenance
// operation.
func (d *D) LastMaintenance() Maintenance { return d.lastMaint }

// MaintenanceCounts returns how many maintenance operations since Build took
// the incremental path and how many were ground-up rebuilds (direct Rebuild
// calls plus Update's churn fallbacks).
func (d *D) MaintenanceCounts() (incremental, rebuilds int64) {
	return d.incremental, d.rebuilds
}

// CheckSynced verifies that D is exactly the structure Build(g, t) would
// produce: order keys equal to t's post-order labels, every neighbor row
// equal to the vertex's adjacency sorted by key, retired rows empty, no
// accumulated patches, and t's own LCA index in sync. The incremental
// path's differential tests call it after every update; it is O(m + n).
func (d *D) CheckSynced(g *graph.Persistent, t *tree.Tree) error {
	if d.T != t {
		return fmt.Errorf("dstruct: D tree is not the maintained tree")
	}
	if err := t.CheckIndex(); err != nil {
		return fmt.Errorf("dstruct: %w", err)
	}
	if d.numPatches != 0 || len(d.inserted) != 0 || len(d.deletedE) != 0 || len(d.patchVerts) != 0 {
		return fmt.Errorf("dstruct: unabsorbed patches (%d ops, %d inserted rows, %d deleted edges, %d patch vertices)",
			d.numPatches, len(d.inserted), len(d.deletedE), len(d.patchVerts))
	}
	if len(d.key) != t.N() || len(d.nbr) != t.N() {
		return fmt.Errorf("dstruct: key/nbr sized %d/%d, tree has %d slots", len(d.key), len(d.nbr), t.N())
	}
	for v := 0; v < t.N(); v++ {
		if d.key[v] != t.Post(v) {
			return fmt.Errorf("dstruct: key[%d] = %d, post = %d", v, d.key[v], t.Post(v))
		}
	}
	slots := g.NumVertexSlots()
	var want []int
	for v := range d.nbr {
		if v >= slots || !g.IsVertex(v) {
			if len(d.nbr[v]) != 0 {
				return fmt.Errorf("dstruct: non-vertex %d has %d row entries", v, len(d.nbr[v]))
			}
			continue
		}
		want = g.Neighbors(v, want)
		sort.Slice(want, func(i, j int) bool { return d.key[want[i]] < d.key[want[j]] })
		if len(want) != len(d.nbr[v]) {
			return fmt.Errorf("dstruct: row %d has %d entries, graph degree %d", v, len(d.nbr[v]), len(want))
		}
		for i, w := range want {
			if int(d.nbr[v][i]) != w {
				return fmt.Errorf("dstruct: row %d entry %d is %d, want %d", v, i, d.nbr[v][i], w)
			}
		}
	}
	return nil
}

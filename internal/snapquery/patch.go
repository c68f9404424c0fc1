package snapquery

import (
	"math/bits"

	"repro/internal/tree"
)

// Delta names how a snapshot version differs from its parent version: the
// core maintainer's moved-vertex set (vertices whose root path changed),
// the vertices the update removed, and the back-edge SameTree flag. It is
// the currency of the differential build path — a handle created with
// NewDerived or Cache.HandleDerived patches the parent handle's immutable
// index arrays instead of rebuilding them, as long as the delta is small
// enough (see patchPlan) and the parent is still on hand.
type Delta struct {
	Moved    []int
	Removed  []int
	SameTree bool
}

// patchChurnFactor is the churn-ratio fallback threshold, the same shape as
// dstruct.D's: decline the patch when the delta closure would plausibly
// touch a constant fraction of the tree, because beyond that the splice
// degenerates into a fresh walk with extra bookkeeping.
const patchChurnFactor = 4

// patchPlan is the delta closure shared by every patchable index of one
// handle, computed once under its own singleflight slot:
//
//   - shareClean: the moved set is empty (a pure detachment, e.g. a leaf or
//     subtree delete) — no surviving vertex's root path changed, so the
//     parent's LCA tour and lifting table answer every live query verbatim
//     and are shared outright instead of spliced (dirty1 is not computed);
//   - dirty1[v]: T(v) in the PARENT tree contains a moved or removed vertex
//     (T1-ancestor closure of moved ∪ removed) — the subtree's old Euler
//     segment is not reusable;
//   - dirty2[v]: T(v) in the NEW tree contains a moved vertex, or lost one
//     (T2-ancestor closure of moved plus of the detach anchors, the old
//     parents of moved/removed vertices) — the subtree's aggregate may have
//     changed;
//   - affected: exactly the dirty2 vertices, in a children-before-parents
//     fold order, so the bottom-up re-fold finalizes children first;
//   - climbOnly/climb: the single-anchor pure-detachment shortcut — the
//     changed aggregates lie on one root path, so the re-fold climbs it from
//     the anchor and stops as soon as the fold stabilizes (an unchanged
//     vertex cannot change its parent's fold), skipping the marking passes
//     entirely. This is O(aggregates that actually changed), where every
//     marking-based path is Θ(tree depth) — which for the path-like DFS
//     trees of sparse graphs approaches Θ(n).
//
// A vertex clean on both sides roots a subtree with identical vertex set,
// child order, and levels in both trees (unmoved vertices keep parent,
// level, and relative order — the paper's reduction argument), which is
// what lets lca.Patch splice and patchAggIndex copy.
//
// The plan never sorts: affected is the concatenation of the mark2 walk's
// path segments in reverse creation order. Within a segment the walk runs
// child→ancestor, and a later segment never contains an ancestor of an
// earlier segment's vertex (the dirty set is ancestor-closed at all times,
// so the full ancestor chain of every marked vertex is marked in the same
// or an earlier segment) — reversing the segments therefore puts every
// dirty child before its dirty parent.
type patchPlan struct {
	sameTree   bool
	shareClean bool
	climbOnly  bool
	climb      int // sole detach anchor; tree.None when nothing survives it
	dirty1     []bool
	dirty2     []bool
	affected   []int32
}

// buildPatchPlan computes the plan, or nil when the patch must be declined:
// no parent delta, a vertex-slot renumbering (relocated pseudo root changes
// N and voids the delta upstream anyway), or churn past the fallback
// threshold.
func buildPatchPlan(t1, t2 *tree.Tree, d Delta) *patchPlan {
	if d.SameTree {
		return &patchPlan{sameTree: true}
	}
	if t1.N() != t2.N() {
		return nil
	}
	if patchChurnFactor*(len(d.Moved)+len(d.Removed)) > t2.Live() {
		return nil
	}
	n := t2.N()
	p := &patchPlan{shareClean: len(d.Moved) == 0}
	present1 := func(v int) bool { return v < t1.N() && t1.Present(v) }
	if p.shareClean {
		// All detachments hanging off one surviving anchor: take the climb
		// shortcut, no marking needed.
		p.climb = tree.None
		single := true
		for _, w := range d.Removed {
			if !present1(w) {
				continue
			}
			pw := t1.Parent[w]
			if pw == tree.None || !t2.Present(pw) {
				continue
			}
			if p.climb == tree.None {
				p.climb = pw
			} else if p.climb != pw {
				single = false
				break
			}
		}
		if single {
			p.climbOnly = true
			return p
		}
		p.climb = tree.None
	} else {
		// dirty1 only steers the Euler-tour splice; a shareClean handle
		// shares the parent tour outright and never splices.
		p.dirty1 = make([]bool, n)
		mark1 := func(v int) {
			for v != tree.None && !p.dirty1[v] {
				p.dirty1[v] = true
				v = t1.Parent[v]
			}
		}
		for _, w := range d.Moved {
			if present1(w) {
				mark1(w)
			}
		}
		for _, w := range d.Removed {
			mark1(w)
		}
	}
	p.dirty2 = make([]bool, n)
	var segs []int32 // start offset of each mark2 path segment in affected
	mark2 := func(v int) {
		start := len(p.affected)
		for v != tree.None && !p.dirty2[v] {
			p.dirty2[v] = true
			p.affected = append(p.affected, int32(v))
			v = t2.Parent[v]
		}
		if len(p.affected) > start {
			segs = append(segs, int32(start))
		}
	}
	for _, w := range d.Moved {
		mark2(w)
	}
	// Detach anchors: the old parent of every moved/removed vertex lost part
	// of its subtree; its new-tree ancestor chain re-aggregates even though
	// nothing moved inside its new subtree.
	anchor := func(w int) {
		if !present1(w) {
			return
		}
		if pw := t1.Parent[w]; pw != tree.None && t2.Present(pw) {
			mark2(pw)
		}
	}
	for _, w := range d.Moved {
		anchor(w)
	}
	for _, w := range d.Removed {
		anchor(w)
	}
	// Fold order: reverse the segment blocks (see the type comment for why
	// that puts every dirty child before its dirty parent).
	if len(segs) > 1 {
		out := make([]int32, 0, len(p.affected))
		for i := len(segs) - 1; i >= 0; i-- {
			hi := len(p.affected)
			if i+1 < len(segs) {
				hi = int(segs[i+1])
			}
			out = append(out, p.affected[segs[i]:hi]...)
		}
		p.affected = out
	}
	return p
}

// patchLiftIndex derives the binary-lifting table from the parent version's:
// shared rows are memcpys, and only the moved vertices' entries are
// recomputed level-by-level — an unmoved vertex has the identical ancestor
// chain in both trees, so every one of its table entries carries over.
// Entries of removed vertices keep stale (but in-bounds) values; the query
// layer rejects non-present vertices before ever reading them, and no live
// vertex's ancestor chain passes through a removed vertex.
func patchLiftIndex(par *liftIndex, t2 *tree.Tree, plan *patchPlan, moved []int) *liftIndex {
	n := t2.N()
	maxLvl := 0
	for v := 0; v < n; v++ {
		if t2.Present(v) && t2.Level(v) > maxLvl {
			maxLvl = t2.Level(v)
		}
	}
	levels := bits.Len(uint(maxLvl))
	if levels == 0 {
		levels = 1
	}
	up := make([][]int32, levels)
	shared := levels
	if len(par.up) < shared {
		shared = len(par.up)
	}
	for k := 0; k < shared; k++ {
		row := make([]int32, n)
		copy(row, par.up[k])
		up[k] = row
	}
	for _, w := range moved {
		if p := t2.Parent[w]; p != tree.None {
			up[0][w] = int32(p)
		} else {
			up[0][w] = -1
		}
	}
	for k := 1; k < shared; k++ {
		prev := up[k-1]
		row := up[k]
		for _, w := range moved {
			if p := prev[w]; p >= 0 {
				row[w] = prev[p]
			} else {
				row[w] = -1
			}
		}
	}
	// The tree got deeper than the parent's table: the extra top rows have
	// no counterpart to copy, compute them in full.
	for k := shared; k < levels; k++ {
		prev := up[k-1]
		row := make([]int32, n)
		for v := 0; v < n; v++ {
			if p := prev[v]; p >= 0 {
				row[v] = prev[p]
			} else {
				row[v] = -1
			}
		}
		up[k] = row
	}
	return &liftIndex{up: up}
}

// patchAggIndex derives the subtree aggregates from the parent version's:
// three memcpys plus a bottom-up re-fold — of the affected closure in fold
// order, or, on the single-anchor climb shortcut, of the anchor's root path
// with an early exit once the fold stabilizes (a vertex whose aggregate did
// not change cannot change its parent's). An unaffected vertex's subtree is
// unchanged, so its copied aggregate — and its contribution to an affected
// parent's fold — is already correct.
func patchAggIndex(par *aggIndex, t2 *tree.Tree, plan *patchPlan) *aggIndex {
	n := t2.N()
	ix := &aggIndex{
		height: make([]int32, n),
		min:    make([]int32, n),
		max:    make([]int32, n),
	}
	copy(ix.height, par.height)
	copy(ix.min, par.min)
	copy(ix.max, par.max)
	refold := func(v int) (changed bool) {
		var hh int32
		mn, mx := int32(v), int32(v)
		for _, c := range t2.Children(v) {
			if ix.height[c]+1 > hh {
				hh = ix.height[c] + 1
			}
			if ix.min[c] < mn {
				mn = ix.min[c]
			}
			if ix.max[c] > mx {
				mx = ix.max[c]
			}
		}
		if hh == ix.height[v] && mn == ix.min[v] && mx == ix.max[v] {
			return false
		}
		ix.height[v], ix.min[v], ix.max[v] = hh, mn, mx
		return true
	}
	if plan.climbOnly {
		for v := plan.climb; v != tree.None && refold(v); v = t2.Parent[v] {
		}
		return ix
	}
	for _, v32 := range plan.affected {
		refold(int(v32))
	}
	return ix
}

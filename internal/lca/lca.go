// Package lca implements constant-time lowest-common-ancestor queries after
// linear preprocessing, standing in for the Schieber–Vishkin structure of
// Theorem 5/6 of the paper. It is the repository's only LCA structure: the
// reroot engine, the D structure, the core and streaming maintainers and the
// snapshot analytics engine all query it.
//
// The index is the classical reduction to range-minimum over the Euler tour,
// with block RMQ on top: the int32 tour is cut into blocks of 8 entries, and
// only the per-block minima carry a sparse table, about m/8·log(m/8) words
// for a tour of m entries instead of m·log m. A query inside one block scans
// it; a query spanning blocks reads the precomputed in-block suffix minimum
// of its first block and prefix minimum of its last (a byte per tour entry
// each) plus two sparse-table entries, and picks among them with
// branch-free min, so no comparison outcome can be mispredicted.
//
// The width is fixed at 8, not an option: the reroot engine and D's
// searches ask about three times as many LCA queries per update as the
// snapshot analytics engine does, so queries must stay cheap, and wider
// blocks mean more and longer in-block scans. With scans at both ends of
// every query, width 32 cost churn updates 3–19% more CPU than width 8; the
// longer scans outweighed the cheaper build.
//
// Consecutive trees of the dynamic maintainer share almost all of their
// Euler tour (unmoved subtrees keep their vertex sets, child order and
// levels), so besides Build the package offers Patch, which splices clean
// subtrees' tour segments out of a previous index, and Shared, which reuses
// a previous index verbatim across a pure detachment. CheckSynced is the
// differential oracle for all three.
package lca

import (
	"fmt"
	"math/bits"

	"repro/internal/tree"
)

// block is the Euler-tour block width (see the package comment).
const block = 8

// Index answers LCA queries over one frozen tree. All arrays are immutable
// after Build/Patch, so an Index may be shared by any number of readers and
// by later indexes (Shared).
type Index struct {
	tour   []int32   // Euler walk, 2·live-1 vertices when exact (see stale)
	depth  []int32   // depth[i] = level of tour[i]
	first  []int32   // first occurrence of v in tour; -1 for holes
	pre    []uint8   // offset in i's block of the min depth on [block start, i]
	suf    []uint8   // offset in i's block of the min depth on [i, block end]
	sparse [][]int32 // sparse[k][b]: min position over blocks [b, b+2^k)

	// stale marks a tour shared across one or more pure detachments (no
	// surviving vertex moved): it is the exact tour of an earlier tree and
	// still answers every query on vertices of the current one — removed
	// vertices' leftover occurrences lie strictly below any live range
	// minimum — but its segment offsets no longer match the current tree,
	// so it cannot serve as the base of a later Patch.
	stale bool
}

// Build constructs the index from scratch: one Euler walk plus the
// block-minima span pass.
func Build(t *tree.Tree) *Index { return build(t, nil) }

// Patch derives the index of t from par, the index of an earlier tree, by
// splicing the Euler tour: one walk over t that copies par's tour segment
// for every child subtree T(c) with clean(c) and emits the rest vertex by
// vertex. clean(c) must hold only when T(c) has the same vertex set, child
// order and levels in both trees (no vertex moved, removed or added inside
// it); its segment is then byte-identical in both tours. first and the
// block spans are refilled in one O(tour) int32 pass each.
//
// Patch returns nil when par is stale: a shared tour's segment offsets
// include the detached vertices' occurrences, so the caller must Build.
func Patch(par *Index, t *tree.Tree, clean func(v int) bool) *Index {
	if par.stale {
		return nil
	}
	return build(t, func(ix *Index, c int) bool {
		if c >= len(par.first) || par.first[c] < 0 || !clean(c) {
			return false
		}
		lo := par.first[c]
		hi := lo + int32(2*t.Size(c)-1)
		ix.tour = append(ix.tour, par.tour[lo:hi]...)
		ix.depth = append(ix.depth, par.depth[lo:hi]...)
		return true
	})
}

// build walks t's Euler tour into a fresh index, then fills first and the
// spans. For every child c the walk first offers splice(ix, c) (when
// non-nil), which may append T(c)'s whole segment itself and return true;
// the walk then skips T(c) and only re-emits c's parent.
func build(t *tree.Tree, splice func(ix *Index, c int) bool) *Index {
	m := 2*t.Live() - 1
	ix := &Index{
		tour:  make([]int32, 0, m),
		depth: make([]int32, 0, m),
		first: make([]int32, t.N()),
	}
	emit := func(v int) {
		ix.tour = append(ix.tour, int32(v))
		ix.depth = append(ix.depth, int32(t.Level(v)))
	}
	type frame struct{ v, ci int }
	stack := []frame{{t.Root, 0}}
	emit(t.Root)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if kids := t.Children(f.v); f.ci < len(kids) {
			c := kids[f.ci]
			f.ci++
			if splice != nil && splice(ix, c) {
				emit(f.v)
				continue
			}
			emit(c)
			stack = append(stack, frame{c, 0})
			continue
		}
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			emit(stack[len(stack)-1].v)
		}
	}
	for v := range ix.first {
		ix.first[v] = -1
	}
	for i, v := range ix.tour {
		if ix.first[v] < 0 {
			ix.first[v] = int32(i)
		}
	}
	ix.span()
	return ix
}

// Shared returns an index over the current tree that reuses ix's arrays
// verbatim. It is valid only when no vertex of the current tree changed its
// root path since ix's tree (a pure detachment, or no change at all).
// detached reports whether vertices were removed since; the result is then
// stale and declines to serve as a Patch base.
func (ix *Index) Shared(detached bool) *Index {
	cp := *ix
	cp.stale = ix.stale || detached
	return &cp
}

// span computes the in-block prefix/suffix minima and the sparse table over
// the block minima from tour/depth.
func (ix *Index) span() {
	m := len(ix.tour)
	nb := (m + block - 1) / block
	ix.pre = make([]uint8, m)
	ix.suf = make([]uint8, m)
	row0 := make([]int32, nb)
	for b := range row0 {
		lo := b * block
		d := ix.depth[lo:min(lo+block, m)]
		best := 0
		for k := range d {
			if d[k] < d[best] {
				best = k
			}
			ix.pre[lo+k] = uint8(best)
		}
		best = len(d) - 1
		for k := len(d) - 1; k >= 0; k-- {
			if d[k] <= d[best] {
				best = k
			}
			ix.suf[lo+k] = uint8(best)
		}
		row0[b] = int32(lo + best)
	}
	levels := bits.Len(uint(nb))
	ix.sparse = make([][]int32, levels)
	ix.sparse[0] = row0
	for k := 1; k < levels; k++ {
		prev := ix.sparse[k-1]
		w := 1 << (k - 1)
		row := make([]int32, nb-2*w+1)
		for b := range row {
			l, r := prev[b], prev[b+w]
			if ix.depth[r] < ix.depth[l] {
				l = r
			}
			row[b] = l
		}
		ix.sparse[k] = row
	}
}

// LCA returns the lowest common ancestor of tree vertices u and v.
func (ix *Index) LCA(u, v int) int {
	i, j := ix.first[u], ix.first[v]
	if i < 0 || j < 0 {
		panic(fmt.Sprintf("lca: query on non-tree vertex (%d,%d)", u, v))
	}
	if i > j {
		i, j = j, i
	}
	// Compare (depth, position) keys with min: branch-free, so the
	// data-dependent outcome of each comparison costs no misprediction.
	key := func(p int32) int64 { return int64(ix.depth[p])<<32 | int64(p) }
	bi, bj := i/block, j/block
	if bi == bj {
		best := key(i)
		for p := i + 1; p <= j; p++ {
			best = min(best, key(p))
		}
		return int(ix.tour[int32(best)])
	}
	best := min(key(bi*block+int32(ix.suf[i])), key(bj*block+int32(ix.pre[j])))
	if bl, br := int(bi)+1, int(bj)-1; bl <= br {
		k := bits.Len(uint(br-bl+1)) - 1
		best = min(best, key(ix.sparse[k][bl]), key(ix.sparse[k][br-(1<<k)+1]))
	}
	return int(ix.tour[int32(best)])
}

// CheckSynced verifies that ix answers for t: an exact index must equal
// Build(t) entry for entry (tour, depths, every live vertex's first
// occurrence); a stale one must reduce to Build(t)'s tour after dropping
// the occurrences of vertices absent from t and collapsing the adjacent
// duplicates each excision leaves, with every live first[] indexing one of
// the vertex's own occurrences (any occurrence is a valid RMQ endpoint).
// Either way the in-block minima and the sparse table must be those of
// ix's own tour. Entries at hole slots are not checked. It is O(n) and
// allocates a fresh index; nil means in sync.
func (ix *Index) CheckSynced(t *tree.Tree) error {
	want := Build(t)
	if ix.stale {
		j := 0
		prev := int32(-1)
		for i, v := range ix.tour {
			if !t.Present(int(v)) || (j > 0 && v == prev) {
				continue
			}
			if j >= len(want.tour) || v != want.tour[j] || ix.depth[i] != want.depth[j] {
				k := min(j, len(want.tour)-1)
				return fmt.Errorf("lca: stale tour normalizes to (%d,%d) at %d, want (%d,%d)",
					v, ix.depth[i], j, want.tour[k], want.depth[k])
			}
			prev = v
			j++
		}
		if j != len(want.tour) {
			return fmt.Errorf("lca: stale tour normalizes to %d entries, want %d", j, len(want.tour))
		}
		for v := 0; v < t.N(); v++ {
			if t.Present(v) && (v >= len(ix.first) || ix.first[v] < 0 || int(ix.first[v]) >= len(ix.tour) || ix.tour[ix.first[v]] != int32(v)) {
				return fmt.Errorf("lca: stale first[%d] does not index an occurrence of %d", v, v)
			}
		}
	} else {
		if len(ix.tour) != len(want.tour) || len(ix.depth) != len(want.tour) {
			return fmt.Errorf("lca: tour length %d (depth %d), want %d", len(ix.tour), len(ix.depth), len(want.tour))
		}
		for i := range want.tour {
			if ix.tour[i] != want.tour[i] || ix.depth[i] != want.depth[i] {
				return fmt.Errorf("lca: tour[%d] = (%d,%d), want (%d,%d)",
					i, ix.tour[i], ix.depth[i], want.tour[i], want.depth[i])
			}
		}
		if len(ix.first) != t.N() {
			return fmt.Errorf("lca: first sized %d, tree has %d slots", len(ix.first), t.N())
		}
		for v := 0; v < t.N(); v++ {
			if t.Present(v) && ix.first[v] != want.first[v] {
				return fmt.Errorf("lca: first[%d] = %d, want %d", v, ix.first[v], want.first[v])
			}
		}
	}
	spanned := &Index{tour: ix.tour, depth: ix.depth}
	spanned.span()
	for i := range spanned.pre {
		if i >= len(ix.pre) || i >= len(ix.suf) || ix.pre[i] != spanned.pre[i] || ix.suf[i] != spanned.suf[i] {
			return fmt.Errorf("lca: in-block minima at %d differ from the tour's", i)
		}
	}
	if len(spanned.sparse) != len(ix.sparse) {
		return fmt.Errorf("lca: %d sparse levels, want %d", len(ix.sparse), len(spanned.sparse))
	}
	for k, row := range spanned.sparse {
		if len(ix.sparse[k]) != len(row) {
			return fmt.Errorf("lca: sparse[%d] has %d entries, want %d", k, len(ix.sparse[k]), len(row))
		}
		for b := range row {
			if ix.sparse[k][b] != row[b] {
				return fmt.Errorf("lca: sparse[%d][%d] = %d, want %d", k, b, ix.sparse[k][b], row[b])
			}
		}
	}
	return nil
}

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
// The core maintainer builds one index per DFS tree (D's embedded index)
// and the serving layer publishes that same index with each snapshot, so
// the snapshot analytics engine reads it instead of building its own.
// Besides LCA, the index answers level-ancestor queries (AncestorAtDepth)
// by binary search over the same block minima. CheckSynced is the
// differential oracle: an index must equal a fresh Build of its tree.
package lca

import (
	"fmt"
	"math/bits"

	"repro/internal/tree"
)

// block is the Euler-tour block width (see the package comment).
const block = 8

// Index answers LCA queries over one frozen tree. All arrays are immutable
// after Build, so an Index may be shared by any number of readers.
type Index struct {
	tour   []int32   // Euler walk, 2·live-1 vertices
	depth  []int32   // depth[i] = level of tour[i]
	first  []int32   // first occurrence of v in tour; -1 for holes
	pre    []uint8   // offset in i's block of the min depth on [block start, i]
	suf    []uint8   // offset in i's block of the min depth on [i, block end]
	sparse [][]int32 // sparse[k][b]: min position over blocks [b, b+2^k)
}

// Build constructs the index from scratch: one Euler walk plus the
// block-minima span pass.
func Build(t *tree.Tree) *Index {
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

// AncestorAtDepth returns the ancestor of tree vertex v whose level is d
// (v itself when d >= v's level), or -1 when d is above the root. It is the
// tour entry at the largest position <= first[v] whose depth is <= d: every
// entry after the ancestor's last visit before first[v] lies inside the
// subtree of its child toward v, so deeper than d. The search scans v's own
// block, then jumps leftward over whole blocks whose minimum is deeper than
// d with the sparse table (largest jumps first), then scans the block it
// stops at: O(log n), no extra arrays.
func (ix *Index) AncestorAtDepth(v, d int) int {
	p := ix.first[v]
	if p < 0 {
		panic(fmt.Sprintf("lca: level-ancestor query on non-tree vertex %d", v))
	}
	dd := int32(d)
	lo := p / block * block
	for q := p; q >= lo; q-- {
		if ix.depth[q] <= dd {
			return int(ix.tour[q])
		}
	}
	r := int(p/block) - 1 // rightmost candidate block
	for k := len(ix.sparse) - 1; k >= 0 && r >= 0; k-- {
		if l := r - (1 << k) + 1; l >= 0 && ix.depth[ix.sparse[k][l]] > dd {
			r = l - 1
		}
	}
	if r < 0 {
		return -1
	}
	for q := int32(r*block + block - 1); ; q-- {
		if ix.depth[q] <= dd {
			return int(ix.tour[q])
		}
	}
}

// CheckSynced verifies that ix answers for t: it must equal Build(t) entry
// for entry (tour, depths, every live vertex's first occurrence), and its
// in-block minima and sparse table must be those of its own tour. Entries
// at hole slots are not checked. It is O(n) and allocates a fresh index;
// nil means in sync.
func (ix *Index) CheckSynced(t *tree.Tree) error {
	want := Build(t)
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

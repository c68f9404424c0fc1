package tree

import (
	"math/bits"
	"testing"
)

// eulerIndex is the Euler-tour LCA index the tree's pre-order index
// replaced, kept as a test-only reference: range-minimum over the depths of
// the 2n−1 entry Euler walk, with a plain sparse table over every entry.
type eulerIndex struct {
	tour   []int   // Euler walk, 2·live-1 vertices
	depth  []int   // depth[i] = level of tour[i]
	first  []int   // first occurrence of v in tour; -1 for holes
	sparse [][]int // sparse[k][i]: min-depth position over [i, i+2^k)
}

// buildEuler lays out t's Euler walk with its own DFS.
func buildEuler(t *Tree) *eulerIndex {
	ix := &eulerIndex{first: make([]int, t.N())}
	for v := range ix.first {
		ix.first[v] = -1
	}
	var walk func(v int)
	emit := func(v int) {
		if ix.first[v] < 0 {
			ix.first[v] = len(ix.tour)
		}
		ix.tour = append(ix.tour, v)
		ix.depth = append(ix.depth, t.Level(v))
	}
	walk = func(v int) {
		emit(v)
		for _, c := range t.Children(v) {
			walk(c)
			emit(v)
		}
	}
	walk(t.Root)
	m := len(ix.tour)
	ix.sparse = [][]int{make([]int, m)}
	for i := range ix.sparse[0] {
		ix.sparse[0][i] = i
	}
	for k := 1; 1<<k <= m; k++ {
		prev, w := ix.sparse[k-1], 1<<(k-1)
		row := make([]int, m-2*w+1)
		for i := range row {
			l, r := prev[i], prev[i+w]
			if ix.depth[r] < ix.depth[l] {
				l = r
			}
			row[i] = l
		}
		ix.sparse = append(ix.sparse, row)
	}
	return ix
}

// argmin returns a min-depth position on [i, j].
func (ix *eulerIndex) argmin(i, j int) int {
	k := bits.Len(uint(j-i+1)) - 1
	l, r := ix.sparse[k][i], ix.sparse[k][j-(1<<k)+1]
	if ix.depth[r] < ix.depth[l] {
		return r
	}
	return l
}

func (ix *eulerIndex) lca(u, v int) int {
	i, j := ix.first[u], ix.first[v]
	if i > j {
		i, j = j, i
	}
	return ix.tour[ix.argmin(i, j)]
}

// ancestorAtDepth is the tour entry at the largest position <= first[v]
// whose depth is <= d, or -1 when there is none.
func (ix *eulerIndex) ancestorAtDepth(v, d int) int {
	for q := ix.first[v]; q >= 0; q-- {
		if ix.depth[q] <= d {
			return ix.tour[q]
		}
	}
	return -1
}

// checkAgainstEuler demands that tr's LCA and AncestorAtDepth answer like
// the Euler-tour reference on every pair of live vertices and at every
// level of every live vertex.
func checkAgainstEuler(t *testing.T, tr *Tree) {
	t.Helper()
	ref := buildEuler(tr)
	vs := tr.Vertices()
	for _, u := range vs {
		for d := -1; d <= tr.Level(u)+1; d++ {
			if got, want := tr.AncestorAtDepth(u, d), ref.ancestorAtDepth(u, d); got != want {
				t.Fatalf("AncestorAtDepth(%d,%d)=%d, Euler reference %d", u, d, got, want)
			}
		}
		for _, v := range vs {
			if got, want := tr.LCA(u, v), ref.lca(u, v); got != want {
				t.Fatalf("LCA(%d,%d)=%d, Euler reference %d", u, v, got, want)
			}
		}
	}
}

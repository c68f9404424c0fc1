package tree

import (
	"fmt"
	"math/bits"
)

// block is the RMQ block width (see the package comment).
const block = 8

// rmq is the block range-minimum structure over the depths of the
// pre-order sequence. The tree builds it on first use; it is immutable
// afterwards.
type rmq struct {
	depth  []int32   // depth[i] = level of order[i]
	pre    []uint8   // offset in i's block of the min depth on [block start, i]
	suf    []uint8   // offset in i's block of the min depth on [i, block end]
	sparse [][]int32 // sparse[k][b]: min position over blocks [b, b+2^k)
}

// index returns the tree's LCA index, building it on the first call.
func (t *Tree) index() *rmq {
	t.ixOnce.Do(func() {
		t.ix.depth = make([]int32, len(t.order))
		for i, v := range t.order {
			t.ix.depth[i] = t.level[v]
		}
		t.ix.span()
	})
	return &t.ix
}

// span computes the in-block prefix/suffix minima and the sparse table over
// the block minima from depth.
func (x *rmq) span() {
	m := len(x.depth)
	nb := (m + block - 1) / block
	x.pre = make([]uint8, m)
	x.suf = make([]uint8, m)
	row0 := make([]int32, nb)
	for b := range row0 {
		lo := b * block
		d := x.depth[lo:min(lo+block, m)]
		best := 0
		for k := range d {
			if d[k] < d[best] {
				best = k
			}
			x.pre[lo+k] = uint8(best)
		}
		best = len(d) - 1
		for k := len(d) - 1; k >= 0; k-- {
			if d[k] <= d[best] {
				best = k
			}
			x.suf[lo+k] = uint8(best)
		}
		row0[b] = int32(lo + best)
	}
	levels := bits.Len(uint(nb))
	x.sparse = make([][]int32, levels)
	x.sparse[0] = row0
	for k := 1; k < levels; k++ {
		prev := x.sparse[k-1]
		w := 1 << (k - 1)
		row := make([]int32, nb-2*w+1)
		for b := range row {
			l, r := prev[b], prev[b+w]
			if x.depth[r] < x.depth[l] {
				l = r
			}
			row[b] = l
		}
		x.sparse[k] = row
	}
}

// argmin returns a position of minimum depth on [i, j], i <= j.
func (x *rmq) argmin(i, j int32) int32 {
	// Compare (depth, position) keys with min: branch-free, so the
	// data-dependent outcome of each comparison costs no misprediction.
	key := func(p int32) int64 { return int64(x.depth[p])<<32 | int64(p) }
	bi, bj := i/block, j/block
	if bi == bj {
		best := key(i)
		for p := i + 1; p <= j; p++ {
			best = min(best, key(p))
		}
		return int32(best)
	}
	best := min(key(bi*block+int32(x.suf[i])), key(bj*block+int32(x.pre[j])))
	if bl, br := int(bi)+1, int(bj)-1; bl <= br {
		k := bits.Len(uint(br-bl+1)) - 1
		best = min(best, key(x.sparse[k][bl]), key(x.sparse[k][br-(1<<k)+1]))
	}
	return int32(best)
}

// LCA returns the lowest common ancestor of tree vertices u and v. For
// pre[u] < pre[v] it is the parent of the shallowest vertex at pre-order
// positions (pre[u], pre[v]]: those positions lie inside T(LCA) below the
// LCA itself, and they include the child of the LCA toward v.
func (t *Tree) LCA(u, v int) int {
	i, j := t.pre[u], t.pre[v]
	if i < 0 || j < 0 {
		panic(fmt.Sprintf("tree: LCA of non-tree vertex (%d,%d)", u, v))
	}
	if i == j {
		return u
	}
	if i > j {
		i, j = j, i
	}
	return t.Parent[t.order[t.index().argmin(i+1, j)]]
}

// AncestorAtDepth returns the ancestor of tree vertex v whose level is d
// (v itself when d >= v's level), or -1 when d is above the root. It is the
// vertex at the largest pre-order position <= pre[v] whose depth is <= d:
// every position after that ancestor's, up to pre[v], lies inside its
// subtree below it, so deeper than d. The search scans v's own block, then
// jumps leftward over whole blocks whose minimum is deeper than d with the
// sparse table (largest jumps first), then scans the block it stops at:
// O(log n), no extra arrays.
func (t *Tree) AncestorAtDepth(v, d int) int {
	if t.pre[v] < 0 {
		panic(fmt.Sprintf("tree: level-ancestor query on non-tree vertex %d", v))
	}
	x, p, dd := t.index(), t.pre[v], int32(d)
	lo := p / block * block
	for q := p; q >= lo; q-- {
		if x.depth[q] <= dd {
			return t.order[q]
		}
	}
	r := int(p/block) - 1 // rightmost candidate block
	for k := len(x.sparse) - 1; k >= 0 && r >= 0; k-- {
		if l := r - (1 << k) + 1; l >= 0 && x.depth[x.sparse[k][l]] > dd {
			r = l - 1
		}
	}
	if r < 0 {
		return -1
	}
	for q := int32(r*block + block - 1); ; q-- {
		if x.depth[q] <= dd {
			return t.order[q]
		}
	}
}

// CheckIndex verifies the tree's lazily built indexes against its own
// numbering, building them first if no query has yet: the depth the LCA
// index records at every pre-order position must be the level of the vertex
// there, its in-block minima and sparse table must equal a fresh span of
// those depths, entry for entry, and every post-order label must be
// Post's. It is O(n) and allocates a fresh index; nil means in sync.
func (t *Tree) CheckIndex() error {
	post := t.PostLabels()
	if len(post) != len(t.pre) {
		return fmt.Errorf("tree: %d post-order labels for %d slots", len(post), len(t.pre))
	}
	for v, p := range post {
		if want := int32(t.Post(v)); p != want {
			return fmt.Errorf("tree: post-order label of %d is %d, want %d", v, p, want)
		}
	}
	x := t.index()
	if len(x.depth) != len(t.order) {
		return fmt.Errorf("tree: index holds %d depths, pre-order has %d vertices", len(x.depth), len(t.order))
	}
	for i, v := range t.order {
		if x.depth[i] != t.level[v] {
			return fmt.Errorf("tree: index depth[%d] = %d, level of %d is %d", i, x.depth[i], v, t.level[v])
		}
	}
	want := rmq{depth: x.depth}
	want.span()
	if len(x.pre) != len(want.pre) || len(x.suf) != len(want.suf) {
		return fmt.Errorf("tree: in-block minima sized %d/%d, want %d", len(x.pre), len(x.suf), len(want.pre))
	}
	for i := range want.pre {
		if x.pre[i] != want.pre[i] || x.suf[i] != want.suf[i] {
			return fmt.Errorf("tree: in-block minima at %d differ from the depths'", i)
		}
	}
	if len(x.sparse) != len(want.sparse) {
		return fmt.Errorf("tree: %d sparse levels, want %d", len(x.sparse), len(want.sparse))
	}
	for k, row := range want.sparse {
		if len(x.sparse[k]) != len(row) {
			return fmt.Errorf("tree: sparse[%d] has %d entries, want %d", k, len(x.sparse[k]), len(row))
		}
		for b := range row {
			if x.sparse[k][b] != row[b] {
				return fmt.Errorf("tree: sparse[%d][%d] = %d, want %d", k, b, x.sparse[k][b], row[b])
			}
		}
	}
	return nil
}

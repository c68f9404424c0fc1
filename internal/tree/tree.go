// Package tree provides the rooted-tree toolkit the dynamic-DFS algorithms
// run on: parent pointers and children, pre/post-order numbering, levels
// and subtree sizes (the functionality of Tarjan–Vishkin, Theorem 4 of the
// paper), path and ancestry helpers, and constant-time lowest common
// ancestors after linear preprocessing, standing in for the
// Schieber–Vishkin structure of Theorems 5/6. The reroot engine, the D
// structure, the core and streaming maintainers and the snapshot analytics
// engine all ask the tree itself.
//
// The tree is lean because the maintainers build a fresh one for every
// update that changes it (the paper's T*_i), and the serving path reads
// little of it. Build keeps only what every update's tree needs: Parent,
// the int32 pre-order, level and size arrays, and the pre-order sequence
// itself. Presence is pre-order >= 0. No per-vertex array holds pointers
// for the garbage collector to scan. Build numbers the tree in one
// iterative pre-order pass over children rows (CSR: one array of children
// grouped by parent in increasing ID order, with an int32 offset per
// vertex) that live in pooled scratch, and sums sizes backwards over the
// pre-order sequence.
//
// Everything else is derived. The children of v are windows of the
// pre-order sequence: the first child sits right after v, at pre[v]+1 when
// size[v] > 1, and the next sibling of c right after T(c), at
// pre[c]+size[c], while that position is still inside the parent's window.
// Siblings come in increasing ID order, as the rows had them. Post-order is
// pre − level + size − 1: the vertices finished before v are those entered
// before it that are not its ancestors (pre[v] − level[v] of them) plus its
// proper descendants (size[v] − 1). The LCA index below and the post-order
// label array D sorts its rows by are each built on first use, once, under
// a sync.Once; the serving path asks for neither, so it never builds them.
//
// The LCA index is the reduction of Bender and Farach-Colton (LATIN'00) to
// range-minimum over the depths of the pre-order sequence that Build
// already numbers: for pre[u] < pre[v], LCA(u,v) is the parent of the
// shallowest vertex at positions (pre[u], pre[v]]. That needs n entries and
// no traversal of its own, where the Euler tour needs 2n−1 and a second
// DFS. On top sits block RMQ: the int32 depths are cut into blocks of 8
// positions, and only the per-block minima carry a sparse table, about
// n/8·log(n/8) words instead of n·log n. A query inside one block scans
// it; a query spanning blocks reads the precomputed in-block suffix minimum
// of its first block and prefix minimum of its last (a byte per position
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
// The same block minima answer level-ancestor queries (AncestorAtDepth) by
// binary search. CheckIndex is the differential oracle: the index and the
// post-order labels must equal a fresh derivation from the tree's own
// pre-order, levels and sizes.
//
// A Tree is logically immutable after Build: its answers never change, and
// the two lazy indexes materialise once under sync.Once, so concurrent
// readers may make the first queries. The dynamic algorithms build a fresh
// Tree for each updated DFS tree, so readers may retain any tree they were
// handed. A Tree must not be copied by value.
package tree

import (
	"fmt"
	"sync"
)

// None marks the absence of a vertex (e.g. the root's parent).
const None = -1

// Tree is a rooted forest over vertex IDs 0..n-1. Vertices with Parent ==
// None and Present == false are holes (deleted vertices); the root has
// Parent == None and Present == true.
//
// Build fills Parent, the int32 numbering arrays and the pre-order
// sequence; the LCA index and the post-order labels are built on first use
// (see the package comment). Only Parent and the pre-order sequence are
// []int, because the accessors hand them out as such.
type Tree struct {
	Root   int
	Parent []int

	// Numbering computed at Build time:
	pre   []int32 // pre-order (entry) index; -1 for holes, so Present is pre >= 0
	level []int32 // depth from root (root = 0); -1 for holes
	size  []int32 // subtree sizes (0 for holes)
	order []int   // pre-order sequence: order[pre[v]] = v, so T(v) is a window

	// Built on first use:
	ixOnce   sync.Once
	ix       rmq // LCA and level-ancestor index over order (lca.go)
	postOnce sync.Once
	post     []int32 // post-order labels (0..live-1); -1 for holes
}

// buildScratch is Build's working storage: the children rows, CSR in
// increasing ID order (the children of v are kids[koff[v]:koff[v+1]]), and
// the DFS stack. None of it outlives the call, so it is pooled.
type buildScratch struct {
	koff, kids, stack []int32
}

var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// resize returns s with length n, reusing its storage when it is big enough.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Build constructs a Tree from a parent array. parent[root] must be None.
// present[v]==false marks holes; present may be nil meaning all present.
// parent is copied.
//
// Build lays out the children rows in scratch with one counting pass,
// numbers the tree with one pre-order pass over them (pre, level and the
// pre-order sequence), and sums subtree sizes in one backward pass over
// that sequence. Each vertex sits in exactly one children row, so the pass
// visits every vertex at most once, and a parent cycle shows up as present
// vertices the root does not reach.
func Build(root int, parent []int, present []bool) (*Tree, error) {
	n := len(parent)
	live := func(v int) bool { return present == nil || present[v] }
	if root < 0 || root >= n || !live(root) {
		return nil, fmt.Errorf("tree: invalid root %d", root)
	}
	if parent[root] != None {
		return nil, fmt.Errorf("tree: root %d has parent %d", root, parent[root])
	}
	t := &Tree{
		Root:   root,
		Parent: append([]int(nil), parent...),
		pre:    make([]int32, n),
		level:  make([]int32, n),
		size:   make([]int32, n),
	}
	s := scratchPool.Get().(*buildScratch)
	defer scratchPool.Put(s)
	// Count each parent's children into koff, then turn the counts into row
	// ends; filling the rows backwards leaves koff[v] at the start of row v
	// and the rows in increasing ID order.
	s.koff = resize(s.koff, n+1)
	koff := s.koff
	clear(koff)
	nlive := 0
	for v, p := range parent {
		t.pre[v], t.level[v] = -1, -1
		if !live(v) {
			if p != None {
				return nil, fmt.Errorf("tree: hole %d has parent", v)
			}
			continue
		}
		nlive++
		if v == root {
			continue
		}
		if p < 0 || p >= n || !live(p) {
			return nil, fmt.Errorf("tree: vertex %d has invalid parent %d", v, p)
		}
		koff[p]++
	}
	for p := 1; p < n; p++ {
		koff[p] += koff[p-1]
	}
	koff[n] = koff[n-1]
	s.kids = resize(s.kids, int(koff[n]))
	kids := s.kids
	for v := n - 1; v >= 0; v-- {
		if v != root && live(v) {
			p := parent[v]
			koff[p]--
			kids[koff[p]] = int32(v)
		}
	}
	if err := t.number(nlive, s); err != nil {
		return nil, err
	}
	return t, nil
}

// MustBuild is Build that panics on error.
func MustBuild(root int, parent []int, present []bool) *Tree {
	t, err := Build(root, parent, present)
	if err != nil {
		panic(err)
	}
	return t
}

// number runs one iterative pre-order DFS from the root over the scratch
// rows, assigning pre and level and recording the pre-order sequence, then
// sums sizes over that sequence read backwards (children before parents).
// It fails when fewer than all live vertices are reachable from the root.
func (t *Tree) number(live int, s *buildScratch) error {
	pre, level, size, kids, koff := t.pre, t.level, t.size, s.kids, s.koff
	order := make([]int, 0, live)
	// Each vertex is pushed once, so the stack never outgrows the slots.
	stack := append(resize(s.stack, len(pre))[:0], int32(t.Root))
	level[t.Root] = 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pre[v] = int32(len(order))
		order = append(order, int(v))
		size[v] = 1
		row := kids[koff[v]:koff[v+1]]
		for i := len(row) - 1; i >= 0; i-- { // reversed, so children pop in ID order
			c := row[i]
			level[c] = level[v] + 1
			stack = append(stack, c)
		}
	}
	s.stack = stack
	t.order = order
	if len(order) != live {
		return fmt.Errorf("tree: %d of %d present vertices reachable from root", len(order), live)
	}
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		size[t.Parent[v]] += size[v]
	}
	return nil
}

// N returns the number of vertex slots.
func (t *Tree) N() int { return len(t.Parent) }

// Live returns the number of present vertices.
func (t *Tree) Live() int { return len(t.order) }

// Present reports whether v is a live vertex of the tree.
func (t *Tree) Present(v int) bool { return v >= 0 && v < len(t.pre) && t.pre[v] >= 0 }

// Children returns the children of v in increasing ID order, in a slice
// allocated for the call: the tree keeps no children rows. Hot paths walk
// FirstChild and NextSibling instead, which allocate nothing.
func (t *Tree) Children(v int) []int {
	var out []int
	for c := t.FirstChild(v); c != None; c = t.NextSibling(c) {
		out = append(out, c)
	}
	return out
}

// FirstChild returns the child of v with the smallest ID, or None when v
// is a leaf or a hole. It is the vertex right after v in pre-order.
func (t *Tree) FirstChild(v int) int {
	if t.size[v] > 1 {
		return t.order[t.pre[v]+1]
	}
	return None
}

// NextSibling returns the child of c's parent that follows c in increasing
// ID order, or None when c is the last one (or the root or a hole). It is
// the vertex right after T(c) in pre-order, while that position is still
// inside the parent's subtree window.
func (t *Tree) NextSibling(c int) int {
	p := t.Parent[c]
	if p == None {
		return None
	}
	if i := t.pre[c] + t.size[c]; i < t.pre[p]+t.size[p] {
		return t.order[i]
	}
	return None
}

// Post returns the post-order index of v (unique in 0..Live-1), or -1 for
// a hole: pre − level + size − 1 (see the package comment), which a hole's
// -1, -1 and 0 turn into -1 as well.
func (t *Tree) Post(v int) int { return int(t.pre[v] - t.level[v] + t.size[v] - 1) }

// Pre returns the pre-order (DFS entry) index of v.
func (t *Tree) Pre(v int) int { return int(t.pre[v]) }

// Level returns the depth of v (root has level 0).
func (t *Tree) Level(v int) int { return int(t.level[v]) }

// Size returns |T(v)|, the number of vertices in the subtree rooted at v.
func (t *Tree) Size(v int) int { return int(t.size[v]) }

// IsAncestor reports whether a is an ancestor of v (not necessarily proper):
// pre[v] falls in T(a)'s pre-order window [pre[a], pre[a]+size[a]). A hole
// has an empty window and no pre-order index, so it is nobody's ancestor or
// descendant.
func (t *Tree) IsAncestor(a, v int) bool {
	return t.pre[a] <= t.pre[v] && t.pre[v] < t.pre[a]+t.size[a]
}

// PathLen returns the number of vertices on the tree path between
// ancestor-descendant pair (a "down" below or equal to "up"), i.e.
// level(down)-level(up)+1. It panics if up is not an ancestor of down.
func (t *Tree) PathLen(up, down int) int {
	if !t.IsAncestor(up, down) {
		panic(fmt.Sprintf("tree: PathLen(%d,%d): not ancestor-descendant", up, down))
	}
	return int(t.level[down]-t.level[up]) + 1
}

// PathUp returns the vertices of path(down, up) listed from down to up,
// where up must be an ancestor of down.
func (t *Tree) PathUp(down, up int) []int {
	if !t.IsAncestor(up, down) {
		panic(fmt.Sprintf("tree: PathUp(%d,%d): not ancestor-descendant", down, up))
	}
	out := make([]int, 0, t.level[down]-t.level[up]+1)
	for v := down; ; v = t.Parent[v] {
		out = append(out, v)
		if v == up {
			return out
		}
	}
}

// AncestorAtLevel returns the ancestor of v at the given level (walking
// parent pointers; O(level(v)-lvl)).
func (t *Tree) AncestorAtLevel(v, lvl int) int {
	if lvl > int(t.level[v]) || lvl < 0 {
		panic(fmt.Sprintf("tree: AncestorAtLevel(%d,%d): level out of range", v, lvl))
	}
	for int(t.level[v]) > lvl {
		v = t.Parent[v]
	}
	return v
}

// ChildToward returns the child c of a such that descendant d ∈ T(c).
// a must be a proper ancestor of d. O(level difference) via parent walk.
func (t *Tree) ChildToward(a, d int) int {
	if a == d || !t.IsAncestor(a, d) {
		panic(fmt.Sprintf("tree: ChildToward(%d,%d): not proper ancestor", a, d))
	}
	return t.AncestorAtLevel(d, int(t.level[a])+1)
}

// PreOrder returns the live vertices in pre-order (PreOrder()[Pre(v)] = v),
// so every subtree is a window of it and, read backwards, it lists
// children before parents. Callers must not mutate.
func (t *Tree) PreOrder() []int { return t.order }

// PostLabels returns the post-order labels of every vertex slot
// (PostLabels()[v] = Post(v), -1 for holes): D orders its neighbor rows by
// them. The array is built on the first call and shared by every later
// one. Callers must not mutate.
func (t *Tree) PostLabels() []int32 {
	t.postOnce.Do(func() {
		t.post = make([]int32, len(t.pre))
		for v := range t.post {
			t.post[v] = int32(t.Post(v))
		}
	})
	return t.post
}

// SubtreeVertices appends the vertices of T(v) to buf in pre-order. T(v) is
// the window of the pre-order sequence starting at pre[v]. v must be present.
func (t *Tree) SubtreeVertices(v int, buf []int) []int {
	lo := t.pre[v]
	return append(buf, t.order[lo:lo+t.size[v]]...)
}

// Vertices returns all present vertices in increasing ID order.
func (t *Tree) Vertices() []int {
	out := make([]int, 0, t.Live())
	for v, p := range t.pre {
		if p >= 0 {
			out = append(out, v)
		}
	}
	return out
}

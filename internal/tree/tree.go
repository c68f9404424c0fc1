// Package tree provides the rooted-tree toolkit the dynamic-DFS algorithms
// run on: parent/children arrays, pre/post-order numbering, levels
// and subtree sizes (the functionality of Tarjan–Vishkin, Theorem 4 of the
// paper), path and ancestry helpers, and constant-time lowest common
// ancestors after linear preprocessing, standing in for the
// Schieber–Vishkin structure of Theorems 5/6. The reroot engine, the D
// structure, the core and streaming maintainers and the snapshot analytics
// engine all ask the tree itself.
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
// binary search. CheckIndex is the differential oracle: the index must
// equal a fresh derivation from the tree's own pre-order and levels.
//
// A Tree is immutable after Build; the dynamic algorithms build a fresh
// Tree for each updated DFS tree (the paper's T*_i), so readers may retain
// any tree they were handed.
package tree

import "fmt"

// None marks the absence of a vertex (e.g. the root's parent).
const None = -1

// Tree is a rooted forest over vertex IDs 0..n-1. Vertices with Parent ==
// None and Present == false are holes (deleted vertices); the root has
// Parent == None and Present == true.
type Tree struct {
	Root     int
	Parent   []int
	present  []bool
	children [][]int

	// Numbering computed at Build time:
	post  []int // post-order index (0..live-1); -1 for holes
	pre   []int // pre-order (entry) index; -1 for holes
	order []int // pre-order sequence: order[pre[v]] = v, so T(v) is a window
	level []int // depth from root (root = 0)
	size  []int // subtree sizes (0 for holes)
	ix    rmq   // LCA and level-ancestor index over order (lca.go)

	live int
}

// Build constructs a Tree from a parent array. parent[root] must be None.
// present[v]==false marks holes; present may be nil meaning all present.
// parent is copied.
func Build(root int, parent []int, present []bool) (*Tree, error) {
	n := len(parent)
	t := &Tree{
		Root:     root,
		Parent:   append([]int(nil), parent...),
		present:  make([]bool, n),
		children: make([][]int, n),
		post:     make([]int, n),
		pre:      make([]int, n),
		level:    make([]int, n),
		size:     make([]int, n),
	}
	for v := 0; v < n; v++ {
		t.present[v] = present == nil || present[v]
		t.post[v], t.pre[v], t.level[v] = -1, -1, -1
	}
	if root < 0 || root >= n || !t.present[root] {
		return nil, fmt.Errorf("tree: invalid root %d", root)
	}
	if parent[root] != None {
		return nil, fmt.Errorf("tree: root %d has parent %d", root, parent[root])
	}
	for v := 0; v < n; v++ {
		if !t.present[v] {
			if parent[v] != None {
				return nil, fmt.Errorf("tree: hole %d has parent", v)
			}
			continue
		}
		t.live++
		p := parent[v]
		if v == root {
			continue
		}
		if p < 0 || p >= n || !t.present[p] {
			return nil, fmt.Errorf("tree: vertex %d has invalid parent %d", v, p)
		}
		t.size[p]++ // child count for now; number() overwrites size
	}
	// Every children row is a capped window of one backing array, filled in
	// increasing ID order.
	backing := make([]int, max(t.live-1, 0))
	off := 0
	for p := 0; p < n; p++ {
		k := t.size[p]
		t.children[p] = backing[off : off : off+k]
		off += k
		t.size[p] = 0
	}
	for v := 0; v < n; v++ {
		if v != root && t.present[v] {
			t.children[parent[v]] = append(t.children[parent[v]], v)
		}
	}
	if err := t.number(); err != nil {
		return nil, err
	}
	t.ix.span()
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

// number runs one iterative DFS from the root assigning pre/post/level/size
// and recording the pre-order sequence with the depth of each of its
// positions. It also validates that the parent array is acyclic and spans
// all present vertices.
func (t *Tree) number() error {
	type frame struct {
		v, ci int
	}
	stack := make([]frame, 0, t.live)
	t.order = make([]int, 0, t.live)
	t.ix.depth = make([]int32, 0, t.live)
	stack = append(stack, frame{t.Root, 0})
	t.level[t.Root] = 0
	preC, postC := 0, 0
	t.pre[t.Root] = preC
	preC++
	t.order = append(t.order, t.Root)
	t.ix.depth = append(t.ix.depth, 0)
	visited := 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.ci < len(t.children[f.v]) {
			c := t.children[f.v][f.ci]
			f.ci++
			if t.pre[c] >= 0 {
				return fmt.Errorf("tree: cycle through %d", c)
			}
			t.level[c] = t.level[f.v] + 1
			t.pre[c] = preC
			preC++
			t.order = append(t.order, c)
			t.ix.depth = append(t.ix.depth, int32(t.level[c]))
			visited++
			stack = append(stack, frame{c, 0})
			continue
		}
		v := f.v
		stack = stack[:len(stack)-1]
		t.post[v] = postC
		postC++
		sz := 1
		for _, c := range t.children[v] {
			sz += t.size[c]
		}
		t.size[v] = sz
	}
	if visited != t.live {
		return fmt.Errorf("tree: %d of %d present vertices reachable from root", visited, t.live)
	}
	return nil
}

// N returns the number of vertex slots.
func (t *Tree) N() int { return len(t.Parent) }

// Live returns the number of present vertices.
func (t *Tree) Live() int { return t.live }

// Present reports whether v is a live vertex of the tree.
func (t *Tree) Present(v int) bool { return v >= 0 && v < len(t.present) && t.present[v] }

// Children returns the children of v in build order. Callers must not mutate.
func (t *Tree) Children(v int) []int { return t.children[v] }

// Post returns the post-order index of v (unique in 0..Live-1).
func (t *Tree) Post(v int) int { return t.post[v] }

// PostInto copies the post-order numbering into dst, reallocating only when
// dst lacks capacity: dst[v] = Post(v), -1 for holes. D's Build and Rebuild
// use it to copy the tree's numbering into their order keys in one bulk pass.
func (t *Tree) PostInto(dst []int) []int {
	if cap(dst) < len(t.post) {
		dst = make([]int, len(t.post))
	}
	dst = dst[:len(t.post)]
	copy(dst, t.post)
	return dst
}

// Pre returns the pre-order (DFS entry) index of v.
func (t *Tree) Pre(v int) int { return t.pre[v] }

// Level returns the depth of v (root has level 0).
func (t *Tree) Level(v int) int { return t.level[v] }

// Size returns |T(v)|, the number of vertices in the subtree rooted at v.
func (t *Tree) Size(v int) int { return t.size[v] }

// IsAncestor reports whether a is an ancestor of v (not necessarily proper):
// pre[v] falls in T(a)'s pre-order window [pre[a], pre[a]+size[a]). A hole
// has an empty window and no pre-order index, so it is nobody's ancestor or
// descendant.
func (t *Tree) IsAncestor(a, v int) bool {
	return t.pre[a] <= t.pre[v] && t.pre[v] < t.pre[a]+t.size[a]
}

// InSubtree reports whether v lies in T(w). Identical to IsAncestor(w, v);
// provided for readability at call sites phrased in subtree terms.
func (t *Tree) InSubtree(v, w int) bool { return t.IsAncestor(w, v) }

// PathLen returns the number of vertices on the tree path between
// ancestor-descendant pair (a "down" below or equal to "up"), i.e.
// level(down)-level(up)+1. It panics if up is not an ancestor of down.
func (t *Tree) PathLen(up, down int) int {
	if !t.IsAncestor(up, down) {
		panic(fmt.Sprintf("tree: PathLen(%d,%d): not ancestor-descendant", up, down))
	}
	return t.level[down] - t.level[up] + 1
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
	if lvl > t.level[v] || lvl < 0 {
		panic(fmt.Sprintf("tree: AncestorAtLevel(%d,%d): level out of range", v, lvl))
	}
	for t.level[v] > lvl {
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
	return t.AncestorAtLevel(d, t.level[a]+1)
}

// PreOrder returns the live vertices in pre-order (PreOrder()[Pre(v)] = v),
// so every subtree is a window of it and, read backwards, it lists
// children before parents. Callers must not mutate.
func (t *Tree) PreOrder() []int { return t.order }

// SubtreeVertices appends the vertices of T(v) to buf in pre-order. T(v) is
// the window of the pre-order sequence starting at pre[v]. v must be present.
func (t *Tree) SubtreeVertices(v int, buf []int) []int {
	return append(buf, t.order[t.pre[v]:t.pre[v]+t.size[v]]...)
}

// Vertices returns all present vertices in increasing ID order.
func (t *Tree) Vertices() []int {
	out := make([]int, 0, t.live)
	for v := range t.present {
		if t.present[v] {
			out = append(out, v)
		}
	}
	return out
}

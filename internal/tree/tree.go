// Package tree provides the rooted-tree toolkit the dynamic-DFS algorithms
// run on: parent/children arrays, pre/post-order numbering, levels
// and subtree sizes (the functionality of Tarjan–Vishkin, Theorem 4 of the
// paper), path and ancestry helpers, and constant-time lowest common
// ancestors after linear preprocessing, standing in for the
// Schieber–Vishkin structure of Theorems 5/6. The reroot engine, the D
// structure, the core and streaming maintainers and the snapshot analytics
// engine all ask the tree itself.
//
// The layout is compact because the maintainers build a fresh tree for
// every update that changes it. The children rows are CSR: one array of
// children, grouped by parent in increasing ID order, with an int32 offset
// per vertex. Pre-order, post-order, level and size are int32 arrays, and
// presence is pre-order >= 0. No per-vertex array holds pointers for the
// garbage collector to scan, and each numbering costs 4 bytes a slot. Build
// numbers the tree in one iterative pre-order pass, sums sizes backwards
// over the pre-order sequence, and derives post-order from the other three
// (post = pre − level + size − 1), so there is no separate finishing pass.
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
//
// The children rows are one concatenated array and every numbering array
// is int32 (see the package comment); only Parent, the rows and the
// pre-order sequence are []int, because the accessors hand them out as
// such.
type Tree struct {
	Root   int
	Parent []int

	// Children rows, filled in increasing ID order: the children of v are
	// kids[koff[v]:koff[v+1]] (an empty row for leaves and holes).
	kids []int
	koff []int32

	// Numbering computed at Build time:
	pre   []int32 // pre-order (entry) index; -1 for holes, so Present is pre >= 0
	post  []int32 // post-order index (0..live-1); -1 for holes
	level []int32 // depth from root (root = 0); -1 for holes
	size  []int32 // subtree sizes (0 for holes)
	order []int   // pre-order sequence: order[pre[v]] = v, so T(v) is a window
	ix    rmq     // LCA and level-ancestor index over order (lca.go)
}

// Build constructs a Tree from a parent array. parent[root] must be None.
// present[v]==false marks holes; present may be nil meaning all present.
// parent is copied.
//
// Build lays out the children rows with one counting pass, numbers the tree
// with one pre-order pass (pre, level, the pre-order sequence and the
// depths the LCA index spans), sums subtree sizes in one backward pass over
// that sequence, and derives post-order from the rest: the vertices that
// finish before v are those entered before it that are not its ancestors
// (pre[v] − level[v] of them) plus its proper descendants (size[v] − 1).
// Each vertex sits in exactly one children row, so the pass visits every
// vertex at most once, and a parent cycle shows up as present vertices the
// root does not reach.
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
		koff:   make([]int32, n+1),
		pre:    make([]int32, n),
		post:   make([]int32, n),
		level:  make([]int32, n),
		size:   make([]int32, n),
	}
	// Count each parent's children into koff, then turn the counts into row
	// ends; filling the rows backwards leaves koff[v] at the start of row v
	// and the rows in increasing ID order.
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
		t.koff[p]++
	}
	for p := 1; p < n; p++ {
		t.koff[p] += t.koff[p-1]
	}
	t.koff[n] = t.koff[n-1]
	t.kids = make([]int, t.koff[n])
	for v := n - 1; v >= 0; v-- {
		if v != root && live(v) {
			p := parent[v]
			t.koff[p]--
			t.kids[t.koff[p]] = v
		}
	}
	if err := t.number(nlive); err != nil {
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

// number runs one iterative pre-order DFS from the root, assigning pre and
// level and recording the pre-order sequence with the depth of each of its
// positions, then derives size and post from them (see Build). It fails
// when fewer than all live vertices are reachable from the root.
func (t *Tree) number(live int) error {
	pre, level, size, kids, koff := t.pre, t.level, t.size, t.kids, t.koff
	order := make([]int, 0, live)
	depth := make([]int32, 0, live)
	// post is free until the end, and a vertex is pushed at most once, so
	// the stack borrows its storage.
	stack := append(t.post[:0], int32(t.Root))
	level[t.Root] = 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pre[v] = int32(len(order))
		order = append(order, int(v))
		depth = append(depth, level[v])
		size[v] = 1
		row := kids[koff[v]:koff[v+1]]
		for i := len(row) - 1; i >= 0; i-- { // reversed, so children pop in ID order
			c := row[i]
			level[c] = level[v] + 1
			stack = append(stack, int32(c))
		}
	}
	t.order, t.ix.depth = order, depth
	if len(order) != live {
		return fmt.Errorf("tree: %d of %d present vertices reachable from root", len(order), live)
	}
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		size[t.Parent[v]] += size[v]
	}
	post := t.post
	for v, p := range pre {
		post[v] = -1
		if p >= 0 {
			post[v] = p - level[v] + size[v] - 1
		}
	}
	return nil
}

// N returns the number of vertex slots.
func (t *Tree) N() int { return len(t.Parent) }

// Live returns the number of present vertices.
func (t *Tree) Live() int { return len(t.order) }

// Present reports whether v is a live vertex of the tree.
func (t *Tree) Present(v int) bool { return v >= 0 && v < len(t.pre) && t.pre[v] >= 0 }

// Children returns the children of v in increasing ID order, a capped
// window of the tree's concatenated rows. Callers must not mutate.
func (t *Tree) Children(v int) []int {
	lo, hi := t.koff[v], t.koff[v+1]
	return t.kids[lo:hi:hi]
}

// Post returns the post-order index of v (unique in 0..Live-1).
func (t *Tree) Post(v int) int { return int(t.post[v]) }

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
// (PostLabels()[v] = Post(v), -1 for holes) without copying: D orders its
// neighbor rows by them. Callers must not mutate.
func (t *Tree) PostLabels() []int32 { return t.post }

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

// Package verify checks that a rooted spanning tree is a valid DFS tree of a
// graph. Every algorithm in this repository is accepted only if its output
// passes IsDFSTree: the tree must span the graph (per connected component,
// under the paper's pseudo-root convention) and every non-tree edge must be a
// back edge — the classical necessary-and-sufficient condition.
package verify

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tree"
)

// DFSTree validates t against g and returns nil if t is a DFS tree of g.
//
// Requirements checked:
//  1. t's present vertices are exactly g's live vertices.
//  2. Every tree edge (v, parent(v)) is an edge of g, except edges incident
//     to pseudoRoot (pass pseudoRoot = tree.None when there is none).
//  3. Every edge of g is a back edge w.r.t. t (one endpoint ancestor of the
//     other) — tree edges satisfy this trivially.
func DFSTree(g *graph.Persistent, t *tree.Tree, pseudoRoot int) error {
	n := g.NumVertexSlots()
	if pseudoRoot == tree.None {
		if t.N() != n {
			return fmt.Errorf("verify: tree has %d slots, graph %d", t.N(), n)
		}
	} else if t.N() != n && t.N() != n+1 {
		return fmt.Errorf("verify: tree has %d slots, graph %d (+pseudo-root)", t.N(), n)
	}
	for v := 0; v < n; v++ {
		if g.IsVertex(v) != t.Present(v) {
			return fmt.Errorf("verify: vertex %d present in graph=%v, tree=%v",
				v, g.IsVertex(v), t.Present(v))
		}
	}
	if pseudoRoot != tree.None && t.Root != pseudoRoot {
		return fmt.Errorf("verify: root is %d, want pseudo-root %d", t.Root, pseudoRoot)
	}
	// Tree edges must be graph edges.
	for v := 0; v < n; v++ {
		if !t.Present(v) || v == t.Root {
			continue
		}
		p := t.Parent[v]
		if p == pseudoRoot {
			continue
		}
		if !g.HasEdge(v, p) {
			return fmt.Errorf("verify: tree edge (%d,%d) not in graph", v, p)
		}
	}
	// Graph edges must be back edges.
	for _, e := range g.Edges() {
		if !t.IsAncestor(e.U, e.V) && !t.IsAncestor(e.V, e.U) {
			return fmt.Errorf("verify: cross edge %v (lca split)", e)
		}
	}
	return nil
}

// DFSForest validates a DFS tree under the pseudo-root convention with ID
// headroom: t may have more slots than g (reserved IDs are holes), its root
// must be pseudoRoot, every live graph vertex must be present, every tree
// edge not incident to the pseudo root must be a graph edge, and every graph
// edge must be a back edge. Each child subtree of the pseudo root must be a
// single connected component of g.
func DFSForest(g *graph.Persistent, t *tree.Tree, pseudoRoot int) error {
	n := g.NumVertexSlots()
	if t.Root != pseudoRoot {
		return fmt.Errorf("verify: root is %d, want pseudo-root %d", t.Root, pseudoRoot)
	}
	for v := 0; v < t.N(); v++ {
		inG := v < n && g.IsVertex(v)
		if v == pseudoRoot {
			continue
		}
		if inG != t.Present(v) {
			return fmt.Errorf("verify: vertex %d: graph=%v tree=%v", v, inG, t.Present(v))
		}
	}
	for v := 0; v < n; v++ {
		if !t.Present(v) {
			continue
		}
		p := t.Parent[v]
		if p == pseudoRoot {
			continue
		}
		if !g.HasEdge(v, p) {
			return fmt.Errorf("verify: tree edge (%d,%d) not in graph", v, p)
		}
	}
	for _, e := range g.Edges() {
		if !t.IsAncestor(e.U, e.V) && !t.IsAncestor(e.V, e.U) {
			return fmt.Errorf("verify: cross edge %v", e)
		}
	}
	// Component structure: vertices in the same component must share the
	// same child subtree of the pseudo root, and vice versa. A vertex's
	// root child (its top) is found by climbing Parent to the first vertex
	// whose top is known and labelling the climbed path, so every vertex is
	// climbed through once: O(n) in all, and independent of the pre-order
	// numbering the checks above rely on.
	label, _ := g.ConnectedComponents()
	tops := make([]int, t.N())
	for v := range tops {
		tops[v] = tree.None
	}
	var path []int
	compOf := map[int]int{} // pseudo-root child -> component label
	for v := 0; v < n; v++ {
		if !t.Present(v) {
			continue
		}
		u := v
		for tops[u] == tree.None && t.Parent[u] != pseudoRoot {
			path = append(path, u)
			u = t.Parent[u]
		}
		if tops[u] == tree.None {
			tops[u] = u
		}
		top := tops[u]
		for _, w := range path {
			tops[w] = top
		}
		path = path[:0]
		if want, ok := compOf[top]; ok {
			if want != label[v] {
				return fmt.Errorf("verify: tree of root-child %d mixes components", top)
			}
		} else {
			compOf[top] = label[v]
		}
	}
	seen := map[int]bool{}
	for _, c := range compOf {
		if seen[c] {
			return fmt.Errorf("verify: component %d split across root children", c)
		}
		seen[c] = true
	}
	return nil
}

// SubtreeDFS validates that sub is a DFS tree of the subgraph of g induced
// by the vertex set of sub (used to check rerooted subtrees in isolation):
// tree edges are graph edges, and no graph edge internal to the vertex set
// is a cross edge.
func SubtreeDFS(g *graph.Persistent, sub *tree.Tree) error {
	inSet := make(map[int]bool, sub.Live())
	for _, v := range sub.Vertices() {
		inSet[v] = true
	}
	for _, v := range sub.Vertices() {
		if v == sub.Root {
			continue
		}
		if !g.HasEdge(v, sub.Parent[v]) {
			return fmt.Errorf("verify: tree edge (%d,%d) not in graph", v, sub.Parent[v])
		}
	}
	for _, e := range g.Edges() {
		if !inSet[e.U] || !inSet[e.V] {
			continue
		}
		if !sub.IsAncestor(e.U, e.V) && !sub.IsAncestor(e.V, e.U) {
			return fmt.Errorf("verify: cross edge %v within subtree", e)
		}
	}
	return nil
}

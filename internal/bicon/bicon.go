// Package bicon computes articulation points, bridges and biconnected
// components from a graph and its DFS tree — the classical applications the
// paper's introduction motivates dynamic DFS with, and the machinery its
// Section 6.2.2 uses: after a deletion, the distributed algorithm picks
// broadcast vertices from the articulation structure of the current tree.
//
// All computations run off an existing DFS tree (no fresh traversal): the
// low-point of every vertex is a bottom-up tree aggregation over the
// graph's back edges, which is exactly the kind of O(log n)-depth tree
// contraction the paper's substrate (Tarjan–Vishkin) supports. The
// implementation aggregates over the tree's pre-order sequence read
// backwards (children before parents); the PRAM machine, when supplied, is
// charged the tree-contraction model cost.
package bicon

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/tree"
)

// Analysis holds the biconnectivity structure of one graph + DFS tree.
type Analysis struct {
	t   *tree.Tree
	low []int // low[v] = min level reachable from T(v) by one back edge

	artic   []bool
	bridges []graph.Edge
	// compID labels each non-root vertex's parent edge with a biconnected
	// component ID; -1 for holes and roots.
	compID   []int
	numComps int
}

// Analyze computes articulation points, bridges and biconnected components
// of g with respect to its DFS tree t. Vertices adjacent to the pseudo root
// (pass pseudo = tree.None when absent) are treated as component roots.
// mach, when non-nil, is charged the parallel tree-contraction cost.
func Analyze(g *graph.Persistent, t *tree.Tree, pseudo int, mach *pram.Machine) *Analysis {
	n := t.N()
	a := &Analysis{
		t:      t,
		low:    make([]int, n),
		artic:  make([]bool, n),
		compID: make([]int, n),
	}
	for i := range a.compID {
		a.compID[i] = -1
	}
	// The pre-order sequence read backwards lists children before parents,
	// so each vertex's low is final when it is reached, and it pushes it
	// into its parent's. Siblings push from the last to the first, so the
	// last child (the one with no next sibling) is the first to arrive.
	order := t.PreOrder()
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if v == pseudo {
			continue
		}
		low := t.Level(v)
		if t.Size(v) > 1 { // its children have pushed theirs
			low = min(low, a.low[v])
		}
		for _, w32 := range g.Row(v) {
			w := int(w32)
			if w == t.Parent[v] || t.Parent[w] == v {
				continue // tree edges handled by child aggregation
			}
			// Back edge (v,w): if w is an ancestor, it can lift low[v].
			if t.IsAncestor(w, v) && t.Level(w) < low {
				low = t.Level(w)
			}
		}
		a.low[v] = low
		if p := t.Parent[v]; p != tree.None && p != pseudo {
			if t.NextSibling(v) == tree.None {
				a.low[p] = low
			} else {
				a.low[p] = min(a.low[p], low)
			}
		}
	}
	if mach != nil {
		lg := pram.Log2Ceil(t.Live() + 1)
		mach.Charge(lg, int64(2*g.NumEdges())+int64(t.Live())*lg)
	}

	// Articulation points and bridges from low points.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if v == pseudo {
			continue
		}
		p := t.Parent[v]
		if p == tree.None || p == pseudo {
			// v is a component root: articulation iff ≥2 children.
			if twoChildren(t, v) {
				a.artic[v] = true
			}
			continue
		}
		if a.low[v] >= t.Level(p) {
			// No back edge from T(v) climbs above p.
			if p != pseudo && (t.Parent[p] != pseudo && t.Parent[p] != tree.None || twoChildren(t, p)) {
				a.artic[p] = true
			}
			if a.low[v] > t.Level(p) {
				a.bridges = append(a.bridges, graph.Edge{U: p, V: v}.Canon())
			}
		}
	}
	a.assignComponents(pseudo)
	return a
}

// twoChildren reports whether v has at least two children: its first
// child's subtree does not fill the rest of T(v).
func twoChildren(t *tree.Tree, v int) bool {
	c := t.FirstChild(v)
	return c != tree.None && t.Size(c) < t.Size(v)-1
}

// assignComponents labels tree edges with biconnected component IDs: edge
// (parent(v), v) starts a new component iff low[v] >= level(parent(v)).
func (a *Analysis) assignComponents(pseudo int) {
	t := a.t
	// Process in pre-order so parents are labelled first.
	for _, v := range t.PreOrder() {
		if v == pseudo {
			continue
		}
		p := t.Parent[v]
		if p == tree.None || p == pseudo {
			continue
		}
		if a.low[v] >= t.Level(p) || t.Parent[p] == tree.None || t.Parent[p] == pseudo {
			// New biconnected component rooted at edge (p,v)... unless the
			// parent edge is itself unlabelled (p is a component root).
			if a.low[v] >= t.Level(p) {
				a.compID[v] = a.numComps
				a.numComps++
				continue
			}
		}
		if a.compID[p] >= 0 && a.low[v] < t.Level(p) {
			a.compID[v] = a.compID[p]
			continue
		}
		a.compID[v] = a.numComps
		a.numComps++
	}
}

// Low returns the low level of v (minimum tree level reachable from T(v)
// via at most one back edge).
func (a *Analysis) Low(v int) int { return a.low[v] }

// IsArticulation reports whether removing v disconnects its component.
func (a *Analysis) IsArticulation(v int) bool { return a.artic[v] }

// ArticulationPoints returns all articulation points, ascending.
func (a *Analysis) ArticulationPoints() []int {
	var out []int
	for v, b := range a.artic {
		if b {
			out = append(out, v)
		}
	}
	return out
}

// Bridges returns all bridge edges in canonical order.
func (a *Analysis) Bridges() []graph.Edge {
	out := append([]graph.Edge(nil), a.bridges...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// ComponentOf returns the biconnected component ID of tree edge
// (parent(v), v), or -1 if v is a root or hole.
func (a *Analysis) ComponentOf(v int) int { return a.compID[v] }

// NumComponents returns the number of biconnected components.
func (a *Analysis) NumComponents() int { return a.numComps }

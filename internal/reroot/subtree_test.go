package reroot

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/tree"
	"repro/internal/verify"
)

// TestSubtreeDFSKeepsStructure pins the SubtreeDFS executor's visit order:
// rerooting a path at its leaf reverses it, and a child subtree hanging
// off the path keeps every parent entry when all its back edges land on
// its old parent. Both cases delete tree edge (0,1), so T(1) is rerooted
// at 4, the inside end of its only remaining edge (4,0). In the second
// case the back-edge ends 5 and 6 have smaller IDs than their old parent
// 7, so visiting 2's row in plain ID order would hang them from 2.
func TestSubtreeDFSKeepsStructure(t *testing.T) {
	path := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	for _, tc := range []struct {
		name   string
		parent []int // old tree, rooted at 0
		edges  [][2]int
		want   []int // new tree
	}{{
		name:   "path reverses",
		parent: []int{tree.None, 0, 1, 2, 3},
		edges:  path,
		want:   []int{tree.None, 2, 3, 4, 0},
	}, {
		name:   "off-path child subtree stays",
		parent: []int{tree.None, 0, 1, 2, 3, 7, 7, 2},
		edges:  append([][2]int{{2, 7}, {7, 5}, {7, 6}, {5, 2}, {6, 2}}, path...),
		want:   []int{tree.None, 2, 3, 4, 0, 7, 7, 2},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var edges []graph.Edge
			for _, e := range tc.edges {
				edges = append(edges, graph.Edge{U: e[0], V: e[1]})
			}
			g := graph.MustFromEdges(len(tc.parent), edges)
			old := tree.MustBuild(0, tc.parent, nil)
			if err := verify.DFSTree(g, old, tree.None); err != nil {
				t.Fatalf("bad test setup: %v", err)
			}
			g, err := g.DeleteEdge(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			m := pram.NewMachine(old.Live())
			e := New(old, nil, m) // SubtreeDFS asks no oracle
			e.Executor, e.G = SubtreeDFS, g
			if err := (Plan{Steps: []Step{{Sub: 1, Root: 4, Parent: 0}}}).Run(e, nil); err != nil {
				t.Fatal(err)
			}
			got, err := e.Result(0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.DFSTree(g, got, tree.None); err != nil {
				t.Fatalf("invalid DFS tree: %v", err)
			}
			for v, p := range tc.want {
				if got.Parent[v] != p {
					t.Fatalf("parents %v, want %v", got.Parent, tc.want)
				}
			}
			if e.Stats.TotalTraversal != 1 || e.Stats.Rounds != 1 {
				t.Fatalf("stats %+v: want one traversal in one round", e.Stats)
			}
			// Depth = work = the vertices of T(1) plus every row entry
			// they hold (each reached vertex scans its whole row).
			k := int64(old.Size(1))
			for v := 1; v < len(tc.parent); v++ {
				k += int64(g.Degree(v))
			}
			if m.Depth() != k || m.Work() != k {
				t.Fatalf("charged depth %d work %d, want %d each", m.Depth(), m.Work(), k)
			}
		})
	}
}

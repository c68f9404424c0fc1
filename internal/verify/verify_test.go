package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/tree"
)

func pathTree(n int) *tree.Tree {
	parent := make([]int, n)
	parent[0] = tree.None
	for v := 1; v < n; v++ {
		parent[v] = v - 1
	}
	return tree.MustBuild(0, parent, nil)
}

func TestDFSTreeAccepts(t *testing.T) {
	g := graph.Path(5)
	if err := DFSTree(g, pathTree(5), tree.None); err != nil {
		t.Fatal(err)
	}
	// Back edge is fine.
	g, err := g.InsertEdge(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := DFSTree(g, pathTree(5), tree.None); err != nil {
		t.Fatal(err)
	}
}

func TestDFSTreeRejectsCrossEdge(t *testing.T) {
	// Star graph with a path tree: edge (0,2) becomes a cross edge if the
	// tree is 0-1, 1-2 ... build: tree parent = star from 0 is fine; use a
	// graph with edge between two siblings.
	g, err := graph.Star(4).InsertEdge(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	parent := []int{tree.None, 0, 0, 0}
	tr := tree.MustBuild(0, parent, nil)
	if err := DFSTree(g, tr, tree.None); err == nil {
		t.Fatal("cross edge (1,2) not rejected")
	}
}

func TestDFSTreeRejectsFakeTreeEdge(t *testing.T) {
	g := graph.Path(4) // edges (0,1)(1,2)(2,3)
	parent := []int{tree.None, 0, 0, 2}
	tr := tree.MustBuild(0, parent, nil)
	if err := DFSTree(g, tr, tree.None); err == nil {
		t.Fatal("tree edge (2,0) not in graph, not rejected")
	}
}

func TestDFSTreeRejectsPresenceMismatch(t *testing.T) {
	g, err := graph.Path(4).DeleteVertex(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := DFSTree(g, pathTree(4), tree.None); err == nil {
		t.Fatal("deleted vertex present in tree, not rejected")
	}
}

func TestDFSForestPseudoRoot(t *testing.T) {
	// Two components hung under pseudo root 6 (slots 0..3 + headroom).
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	parent := []int{6, 0, 6, 2, tree.None, tree.None, tree.None}
	present := []bool{true, true, true, true, false, false, true}
	tr := tree.MustBuild(6, parent, present)
	if err := DFSForest(g, tr, 6); err != nil {
		t.Fatal(err)
	}
	// Mixing components in one root child must be rejected.
	bad := []int{6, 0, 1, 2, tree.None, tree.None, tree.None}
	trBad := tree.MustBuild(6, bad, present)
	if err := DFSForest(g, trBad, 6); err == nil {
		t.Fatal("tree edge (2,1) absent from graph, not rejected")
	}
}

func TestDFSForestSplitComponent(t *testing.T) {
	// One connected component spread over two root children is invalid.
	g := graph.Path(2)
	parent := []int{3, 3, tree.None, tree.None}
	present := []bool{true, true, false, true}
	tr := tree.MustBuild(3, parent, present)
	if err := DFSForest(g, tr, 3); err == nil {
		t.Fatal("split component not rejected")
	}
}

func TestSubtreeDFS(t *testing.T) {
	g := graph.Cycle(5)
	parent := []int{tree.None, 0, 1, 2, 3}
	tr := tree.MustBuild(0, parent, nil)
	if err := SubtreeDFS(g, tr); err != nil {
		t.Fatal(err)
	}
	// A chord (1,3) makes the same tree invalid... it is a back edge
	// actually (1 ancestor of 3) — still fine.
	g, err := g.InsertEdge(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := SubtreeDFS(g, tr); err != nil {
		t.Fatal(err)
	}
	// But a star-shaped tree on the cycle has cross edges.
	starParent := []int{tree.None, 0, 0, 0, 0}
	star := tree.MustBuild(0, starParent, nil)
	if err := SubtreeDFS(graph.Cycle(5), star); err == nil {
		t.Fatal("star tree over cycle not rejected")
	}
}

// BenchmarkDFSForest prices one full check of a static DFS forest: on a
// path every vertex sits at its own depth (the deepest tree for n), on a
// sparse random graph the tree is bushy. perfbench's final-state check,
// Snapshot.Verify and every core test call DFSForest.
func BenchmarkDFSForest(b *testing.B) {
	const n = 1 << 14
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		g    *graph.Persistent
	}{{"path", graph.Path(n)}, {"gnp", graph.GnpConnected(n, 3.0/n, rng)}} {
		pseudo := c.g.NumVertexSlots()
		tr := baseline.StaticDFSUnder(c.g, pseudo)
		b.Run(fmt.Sprintf("n=%d/shape=%s", n, c.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := DFSForest(c.g, tr, pseudo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

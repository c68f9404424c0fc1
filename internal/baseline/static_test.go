package baseline

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/tree"
	"repro/internal/verify"
)

func TestStaticDFSValid(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(60)
		g := graph.Gnp(n, 3.0/float64(n), rng)
		tr := StaticDFS(g)
		if tr.Root != n {
			t.Fatalf("pseudo root = %d, want %d", tr.Root, n)
		}
		if err := verify.DFSForest(g, tr, n); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestStaticDFSDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	g := graph.GnpConnected(40, 0.1, rng)
	a, b := StaticDFS(g), StaticDFS(g)
	for v := 0; v < a.N(); v++ {
		if a.Parent[v] != b.Parent[v] {
			t.Fatal("static DFS not deterministic")
		}
	}
}

// TestStaticDFSUnderHeadroom places the pseudo root past a block of
// reserved IDs: the tree must be StaticDFS's with the root renamed and the
// reserved IDs left as holes.
func TestStaticDFSUnderHeadroom(t *testing.T) {
	rng := rand.New(rand.NewSource(179))
	g, err := graph.Gnp(30, 0.08, rng).DeleteVertex(7)
	if err != nil {
		t.Fatal(err)
	}
	n, root := g.NumVertexSlots(), g.NumVertexSlots()+5
	want, got := StaticDFS(g), StaticDFSUnder(g, root)
	if got.Root != root || got.N() != root+1 {
		t.Fatalf("root %d over %d IDs, want %d over %d", got.Root, got.N(), root, root+1)
	}
	for v := 0; v < n; v++ {
		p := want.Parent[v]
		if p == n {
			p = root
		}
		if got.Parent[v] != p || got.Present(v) != want.Present(v) {
			t.Fatalf("vertex %d: parent %d present %v, want %d %v", v, got.Parent[v], got.Present(v), p, want.Present(v))
		}
	}
	for v := n; v < root; v++ {
		if got.Present(v) {
			t.Fatalf("reserved ID %d present", v)
		}
	}
	if err := verify.DFSForest(g, got, root); err != nil {
		t.Fatal(err)
	}
}

func TestStaticDFSFromComponent(t *testing.T) {
	g := graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 4, V: 5}})
	tr := StaticDFSFrom(g, 1)
	if tr.Root != 1 || !tr.Present(0) || !tr.Present(2) {
		t.Fatal("component of 1 not covered")
	}
	if tr.Present(4) || tr.Present(5) || tr.Present(3) {
		t.Fatal("foreign component leaked in")
	}
	if err := verify.SubtreeDFS(g, tr); err != nil {
		t.Fatal(err)
	}
}

func TestStaticDFSWithHoles(t *testing.T) {
	g, err := graph.Cycle(8).DeleteVertex(3)
	if err != nil {
		t.Fatal(err)
	}
	tr := StaticDFS(g)
	if tr.Present(3) {
		t.Fatal("deleted vertex present in tree")
	}
	if err := verify.DFSForest(g, tr, 8); err != nil {
		t.Fatal(err)
	}
}

func TestRecomputeBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(179))
	g := graph.GnpConnected(25, 0.15, rng)
	r := NewRecompute(g)
	for step := 0; step < 30; step++ {
		switch rng.Intn(4) {
		case 0:
			if e, ok := graph.RandomEdgeNotIn(r.G, rng); ok {
				if err := r.InsertEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			if e, ok := graph.RandomExistingEdge(r.G, rng); ok {
				if err := r.DeleteEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			if _, err := r.InsertVertex([]int{0}); err != nil {
				t.Fatal(err)
			}
		default:
			if r.G.NumVertices() > 4 {
				v := rng.Intn(r.G.NumVertexSlots())
				if r.G.IsVertex(v) {
					if err := r.DeleteVertex(v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := verify.DFSForest(r.G, r.T, r.G.NumVertexSlots()); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// The retained input graph is immutable: updates derive new versions.
	if g.NumVertices() != 25 {
		t.Fatal("baseline mutated the input graph")
	}
	_ = tree.None
}

func TestRecomputeErrors(t *testing.T) {
	r := NewRecompute(graph.Path(3))
	if err := r.InsertEdge(0, 1); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if err := r.DeleteEdge(0, 2); err == nil {
		t.Fatal("missing edge deletion accepted")
	}
	if err := r.DeleteVertex(9); err == nil {
		t.Fatal("missing vertex deletion accepted")
	}
	if _, err := r.InsertVertex([]int{17}); err == nil {
		t.Fatal("bad neighbor accepted")
	}
}

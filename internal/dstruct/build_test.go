package dstruct

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/pram"
)

// holeyGraph returns a random graph over n slots with about a tenth of the
// slots deleted, so the DFS tree has holes and its pseudo root lies past the
// graph's last slot.
func holeyGraph(n int, rng *rand.Rand) *graph.Graph {
	g := graph.GnpConnected(n, 3.0/float64(n), rng)
	for i := 0; i < n/10; i++ {
		if v := rng.Intn(n); g.IsVertex(v) {
			if err := g.DeleteVertex(v); err != nil {
				panic(err)
			}
		}
	}
	return g
}

func sameRows(t *testing.T, a, b *D) {
	t.Helper()
	if len(a.nbr) != len(b.nbr) {
		t.Fatalf("%d rows vs %d", len(a.nbr), len(b.nbr))
	}
	for v := range a.nbr {
		if !slices.Equal(a.nbr[v], b.nbr[v]) {
			t.Fatalf("row %d: %v vs %v", v, a.nbr[v], b.nbr[v])
		}
	}
}

// TestBuildRowsIndependentOfGraphType builds D over a map-based Graph, whose
// Neighbors come back in map order, and over a Persistent of the same graph,
// whose rows are sorted by ID. The bucket pass must give identical rows, and
// both must equal the sort-based reference of CheckSynced.
func TestBuildRowsIndependentOfGraphType(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 8; trial++ {
		g := holeyGraph(50+rng.Intn(300), rng)
		p := graph.PersistentOf(g)
		tr := baseline.StaticDFS(g)
		dm, dp := Build(g, tr, nil), Build(p, tr, nil)
		sameRows(t, dm, dp)
		if err := dm.CheckSynced(g, tr); err != nil {
			t.Fatalf("trial %d, map graph: %v", trial, err)
		}
		if err := dp.CheckSynced(p, tr); err != nil {
			t.Fatalf("trial %d, persistent graph: %v", trial, err)
		}
	}
}

// TestRebuildAfterMixedPatches mutates the graph through every update kind,
// records each as a patch, and rebuilds over the new graph and DFS tree. The
// rebuilt rows reuse the old ones' capacity where they can and must still
// pass CheckSynced.
func TestRebuildAfterMixedPatches(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	g := holeyGraph(200, rng)
	mach := pram.NewMachineWithWorkers(4096, 2)
	d := Build(graph.PersistentOf(g), baseline.StaticDFS(g), mach)
	live := func() int {
		for {
			if v := rng.Intn(g.NumVertexSlots()); g.IsVertex(v) {
				return v
			}
		}
	}
	for round := 0; round < 20; round++ {
		for op := 0; op < 1+rng.Intn(8); op++ {
			switch rng.Intn(4) {
			case 0:
				if u, v := live(), live(); u != v && !g.HasEdge(u, v) {
					if err := g.InsertEdge(u, v); err != nil {
						t.Fatal(err)
					}
					d.PatchInsertEdge(u, v)
				}
			case 1:
				u := live()
				if nb := g.Neighbors(u, nil); len(nb) > 0 {
					v := nb[rng.Intn(len(nb))]
					if err := g.DeleteEdge(u, v); err != nil {
						t.Fatal(err)
					}
					d.PatchDeleteEdge(u, v)
				}
			case 2:
				nb := []int{live(), live()}
				nb = slices.Compact(slices.Sorted(slices.Values(nb)))
				v, err := g.InsertVertex(nb)
				if err != nil {
					t.Fatal(err)
				}
				d.PatchInsertVertex(v, nb)
			case 3:
				v := live()
				nb := g.Neighbors(v, nil)
				if err := g.DeleteVertex(v); err != nil {
					t.Fatal(err)
				}
				d.PatchDeleteVertex(v, nb)
			}
		}
		tr := baseline.StaticDFS(g)
		var adj graph.Adjacency = g
		if round%2 == 0 {
			adj = graph.PersistentOf(g)
		}
		d.Rebuild(adj, tr, mach)
		if err := d.CheckSynced(adj, tr); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sameRows(t, d, Build(adj, tr, nil))
	}
}

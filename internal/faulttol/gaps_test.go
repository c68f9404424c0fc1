package faulttol

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/verify"
)

func TestBatchWithVertexInsertThenReference(t *testing.T) {
	// A batch may insert a vertex and then run updates touching it: the new
	// vertex has no base-tree numbering, so later walks traverse patch
	// vertices (singleton fragments) and patch adjacency.
	g := graph.Cycle(12)
	ft := Preprocess(g, 6)
	newID := ft.NewVertexIDs(1)[0]
	batch := []core.Update{
		{Kind: core.InsertVertex, Neighbors: []int{0, 6}},
		{Kind: core.InsertEdge, U: newID, V: 3},
		{Kind: core.DeleteEdge, U: 0, V: 1},
		{Kind: core.DeleteEdge, U: newID, V: 6},
	}
	res, err := ft.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.DFSForest(res.Graph, res.Tree, res.PseudoRoot); err != nil {
		t.Fatal(err)
	}
	if !res.Tree.Present(newID) {
		t.Fatal("inserted vertex missing from result tree")
	}
}

func TestBatchDeletesInsertedVertex(t *testing.T) {
	g := graph.Path(8)
	ft := Preprocess(g, 4)
	newID := ft.NewVertexIDs(1)[0]
	batch := []core.Update{
		{Kind: core.InsertVertex, Neighbors: []int{0, 4, 7}},
		{Kind: core.DeleteVertex, U: newID},
	}
	res, err := ft.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.DFSForest(res.Graph, res.Tree, res.PseudoRoot); err != nil {
		t.Fatal(err)
	}
	if res.Tree.Present(newID) {
		t.Fatal("deleted vertex still present")
	}
}

func TestHeadroomBoundEnforced(t *testing.T) {
	g := graph.Path(4)
	ft := Preprocess(g, 2)
	var batch []core.Update
	for i := 0; i < 3; i++ {
		batch = append(batch, core.Update{Kind: core.InsertVertex, Neighbors: []int{0}})
	}
	if _, err := ft.Apply(batch); err == nil {
		t.Fatal("batch exceeding preprocessed maximum accepted")
	}
}

func TestRepeatedHeavyBatches(t *testing.T) {
	// Many batches against one preprocessing; every one verified; the
	// structure's size must not creep (patch leak check).
	rng := rand.New(rand.NewSource(229))
	g := graph.GnpConnected(64, 0.08, rng)
	ft := Preprocess(g, 6)
	size0 := ft.SizeWords()
	for b := 0; b < 25; b++ {
		scratch := g
		var batch []core.Update
		for len(batch) < 5 {
			if e, ok := graph.RandomExistingEdge(scratch, rng); ok {
				if ng, err := scratch.DeleteEdge(e.U, e.V); err == nil {
					scratch = ng
					batch = append(batch, core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V})
				}
			}
		}
		res, err := ft.Apply(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if err := verify.DFSForest(res.Graph, res.Tree, res.PseudoRoot); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	if ft.SizeWords() != size0 {
		t.Fatalf("structure size crept from %d to %d words", size0, ft.SizeWords())
	}
}

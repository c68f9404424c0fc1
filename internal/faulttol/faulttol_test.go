package faulttol

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/verify"
)

func TestSingleUpdateBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(32)
		g := graph.GnpConnected(n, 3.0/float64(n), rng)
		ft := Preprocess(g, 8)
		// Every batch runs against the same preprocessed state.
		for b := 0; b < 5; b++ {
			var u core.Update
			if e, ok := graph.RandomEdgeNotIn(g, rng); ok && b%2 == 0 {
				u = core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}
			} else if e, ok := graph.RandomExistingEdge(g, rng); ok {
				u = core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V}
			} else {
				continue
			}
			res, err := ft.Apply([]core.Update{u})
			if err != nil {
				t.Fatalf("trial %d batch %d: %v", trial, b, err)
			}
			if err := verify.DFSForest(res.Graph, res.Tree, res.PseudoRoot); err != nil {
				t.Fatalf("trial %d batch %d (%v): %v", trial, b, u.Kind, err)
			}
		}
	}
}

func TestMultiUpdateBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(30)
		g := graph.GnpConnected(n, 4.0/float64(n), rng)
		ft := Preprocess(g, 8)
		// Build a batch of up to 4 mixed updates; apply them to a scratch
		// graph in lockstep to produce feasible updates.
		scratch := g
		var batch []core.Update
		for len(batch) < 4 {
			switch rng.Intn(4) {
			case 0:
				if e, ok := graph.RandomEdgeNotIn(scratch, rng); ok {
					if ng, err := scratch.InsertEdge(e.U, e.V); err == nil {
						scratch = ng
						batch = append(batch, core.Update{Kind: core.InsertEdge, U: e.U, V: e.V})
					}
				}
			case 1:
				if e, ok := graph.RandomExistingEdge(scratch, rng); ok {
					if ng, err := scratch.DeleteEdge(e.U, e.V); err == nil {
						scratch = ng
						batch = append(batch, core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V})
					}
				}
			case 2:
				var nbrs []int
				for v := 0; v < scratch.NumVertexSlots(); v++ {
					if scratch.IsVertex(v) && rng.Float64() < 0.1 {
						nbrs = append(nbrs, v)
					}
				}
				if ng, _, err := scratch.InsertVertex(nbrs); err == nil {
					scratch = ng
					batch = append(batch, core.Update{Kind: core.InsertVertex, Neighbors: nbrs})
				}
			case 3:
				v := rng.Intn(n)
				if scratch.IsVertex(v) && scratch.NumVertices() > 4 {
					if ng, err := scratch.DeleteVertex(v); err == nil {
						scratch = ng
						batch = append(batch, core.Update{Kind: core.DeleteVertex, U: v})
					}
				}
			}
		}
		res, err := ft.Apply(batch)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.DFSForest(res.Graph, res.Tree, res.PseudoRoot); err != nil {
			t.Fatalf("trial %d: %v (batch %+v)", trial, err, batch)
		}
	}
}

func TestBatchesAreIndependent(t *testing.T) {
	// Applying a batch must not disturb the preprocessed state: the same
	// batch twice gives the same tree, and D's patches are reset.
	rng := rand.New(rand.NewSource(127))
	g := graph.GnpConnected(20, 0.2, rng)
	ft := Preprocess(g, 4)
	batch := []core.Update{
		{Kind: core.DeleteEdge, U: g.Edges()[0].U, V: g.Edges()[0].V},
		{Kind: core.InsertVertex, Neighbors: []int{1, 5}},
	}
	r1, err := ft.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if got := ft.dd0.D().NumPatches(); got != 0 {
		t.Fatalf("patches leaked: %d", got)
	}
	r2, err := ft.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < r1.Tree.N(); v++ {
		if r1.Tree.Parent[v] != r2.Tree.Parent[v] {
			t.Fatalf("batch not deterministic at vertex %d", v)
		}
	}
}

func TestBatchSizeLimit(t *testing.T) {
	g := graph.Path(6)
	ft := Preprocess(g, 1)
	batch := []core.Update{
		{Kind: core.InsertEdge, U: 0, V: 2},
		{Kind: core.InsertEdge, U: 0, V: 3},
	}
	if _, err := ft.Apply(batch); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

func TestFragmentsGrowWithBatchIndex(t *testing.T) {
	// Later updates in a batch run on trees that have drifted from T0, so
	// walk queries decompose into more fragments (Theorem 9's growth).
	rng := rand.New(rand.NewSource(131))
	g := graph.GnpConnected(128, 0.04, rng)
	ft := Preprocess(g, 8)
	var batch []core.Update
	scratch := g
	for len(batch) < 6 {
		if e, ok := graph.RandomEdgeNotIn(scratch, rng); ok {
			if ng, err := scratch.InsertEdge(e.U, e.V); err == nil {
				scratch = ng
				batch = append(batch, core.Update{Kind: core.InsertEdge, U: e.U, V: e.V})
			}
		}
	}
	res, err := ft.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.FragQueries > 0 && res.Fragments < res.FragQueries {
		t.Fatalf("fragments %d < queries %d", res.Fragments, res.FragQueries)
	}
	if err := verify.DFSForest(res.Graph, res.Tree, res.PseudoRoot); err != nil {
		t.Fatal(err)
	}
}

func TestSizeWordsLinearInM(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	g := graph.GnpConnected(100, 0.1, rng)
	ft := Preprocess(g, 4)
	words := ft.SizeWords()
	m := int64(g.NumEdges())
	if words < 2*m || words > 2*m+8*int64(ft.Tree().N()) {
		t.Fatalf("SizeWords=%d not Θ(m) for m=%d", words, m)
	}
}

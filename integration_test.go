package dfs

// Cross-model integration tests: the four execution models run the same
// update sequences; each must maintain a valid DFS tree of the same evolving
// graph, and model-specific invariants (pass budgets, round budgets, clean
// scheduler stats) must hold simultaneously.

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// script is a reproducible update sequence generated against a scratch
// graph so every update is feasible.
func script(g *Graph, steps int, rng *rand.Rand) []Update {
	scratch := g
	var out []Update
	for len(out) < steps {
		switch rng.Intn(4) {
		case 0:
			if e, ok := RandomNonEdge(scratch, rng); ok {
				if ng, err := scratch.InsertEdge(e.U, e.V); err == nil {
					scratch = ng
					out = append(out, Update{Kind: InsertEdge, U: e.U, V: e.V})
				}
			}
		case 1:
			if e, ok := RandomEdge(scratch, rng); ok {
				if ng, err := scratch.DeleteEdge(e.U, e.V); err == nil {
					scratch = ng
					out = append(out, Update{Kind: DeleteEdge, U: e.U, V: e.V})
				}
			}
		case 2:
			var nbrs []int
			for v := 0; v < scratch.NumVertexSlots() && len(nbrs) < 3; v++ {
				if scratch.IsVertex(v) && rng.Float64() < 0.1 {
					nbrs = append(nbrs, v)
				}
			}
			if ng, _, err := scratch.InsertVertex(nbrs); err == nil {
				scratch = ng
				out = append(out, Update{Kind: InsertVertex, Neighbors: nbrs})
			}
		default:
			if scratch.NumVertices() > 6 {
				v := rng.Intn(scratch.NumVertexSlots())
				if ng, err := scratch.DeleteVertex(v); err == nil {
					scratch = ng
					out = append(out, Update{Kind: DeleteVertex, U: v})
				}
			}
		}
	}
	return out
}

func applyStream(s *Streaming, u Update) error {
	switch u.Kind {
	case InsertEdge:
		return s.InsertEdge(u.U, u.V)
	case DeleteEdge:
		return s.DeleteEdge(u.U, u.V)
	case InsertVertex:
		_, err := s.InsertVertex(u.Neighbors)
		return err
	default:
		return s.DeleteVertex(u.U)
	}
}

func TestAllModelsSameScript(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 6; trial++ {
		n := 16 + rng.Intn(24)
		g := GnpConnected(n, 3.0/float64(n), rng)
		seq := script(g, 20, rng)

		m := NewMaintainer(g)
		s := NewStreaming(g)
		d := NewDistributed(g, 0)

		for i, u := range seq {
			if _, err := m.Apply(u); err != nil {
				t.Fatalf("trial %d step %d maintainer: %v", trial, i, err)
			}
			if err := applyStream(s, u); err != nil {
				t.Fatalf("trial %d step %d streaming: %v", trial, i, err)
			}
			if _, err := d.Apply(u); err != nil {
				t.Fatalf("trial %d step %d distributed: %v", trial, i, err)
			}
			if err := Verify(m.Graph(), m.Tree(), m.PseudoRoot()); err != nil {
				t.Fatalf("trial %d step %d maintainer tree: %v", trial, i, err)
			}
			if err := Verify(m.Graph(), s.Tree(), s.PseudoRoot()); err != nil {
				t.Fatalf("trial %d step %d streaming tree: %v", trial, i, err)
			}
			if err := Verify(d.Core().Graph(), d.Core().Tree(), d.Core().PseudoRoot()); err != nil {
				t.Fatalf("trial %d step %d distributed tree: %v", trial, i, err)
			}
		}
		// Fault tolerant: the same script's prefix as one batch.
		ft := Preprocess(g, 8)
		res, err := ft.Apply(seq[:4])
		if err != nil {
			t.Fatalf("trial %d faulttol: %v", trial, err)
		}
		if err := Verify(res.Graph, res.Tree, res.PseudoRoot); err != nil {
			t.Fatalf("trial %d faulttol tree: %v", trial, err)
		}
	}
}

func TestParallelAndSequentialAgreeOnGraph(t *testing.T) {
	// Both modes track the same graph and both trees must be valid; trees
	// themselves may differ (DFS trees are not unique).
	rng := rand.New(rand.NewSource(223))
	g := GnpConnected(32, 0.12, rng)
	seq := script(g, 25, rng)
	par := NewMaintainerWith(g, Options{RebuildD: true, Executor: Parallel})
	sq := NewMaintainerWith(g, Options{RebuildD: true, Executor: Sequential})
	for i, u := range seq {
		if _, err := par.Apply(u); err != nil {
			t.Fatalf("step %d parallel: %v", i, err)
		}
		if _, err := sq.Apply(u); err != nil {
			t.Fatalf("step %d sequential: %v", i, err)
		}
		if par.Graph().NumEdges() != sq.Graph().NumEdges() ||
			par.Graph().NumVertices() != sq.Graph().NumVertices() {
			t.Fatalf("step %d: graphs diverged", i)
		}
		if err := Verify(sq.Graph(), sq.Tree(), sq.PseudoRoot()); err != nil {
			t.Fatalf("step %d sequential tree: %v", i, err)
		}
	}
}

// Property (testing/quick): for any seed, a random script leaves the fully
// dynamic maintainer with a valid DFS tree and clean scheduler stats.
func TestQuickMaintainerAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + int(uint(seed)%24)
		g := GnpConnected(n, 3.0/float64(n), rng)
		m := NewMaintainerWith(g, Options{RebuildD: true, Executor: Parallel})
		for _, u := range script(g, 12, rng) {
			if _, err := m.Apply(u); err != nil {
				return false
			}
			s := m.LastStats()
			if s.GenericFall > 0 || s.Violations > 0 {
				return false
			}
		}
		return Verify(m.Graph(), m.Tree(), m.PseudoRoot()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): fault tolerant batches never mutate the
// preprocessed structure — applying any batch twice is deterministic.
func TestQuickFaultTolerantDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + int(uint(seed)%20)
		g := GnpConnected(n, 3.0/float64(n), rng)
		ft := Preprocess(g, 4)
		batch := script(g, 3, rng)
		r1, err1 := ft.Apply(batch)
		r2, err2 := ft.Apply(batch)
		if err1 != nil || err2 != nil {
			return false
		}
		for v := 0; v < r1.Tree.N(); v++ {
			if r1.Tree.Parent[v] != r2.Tree.Parent[v] {
				return false
			}
		}
		return Verify(r1.Graph, r1.Tree, r1.PseudoRoot) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBiconnectivityOnMaintainedTree(t *testing.T) {
	// The maintained tree is a DFS tree, so biconnectivity analysis off it
	// must match analysis off a fresh static DFS tree.
	rng := rand.New(rand.NewSource(227))
	g := GnpConnected(40, 0.08, rng)
	m := NewMaintainer(g)
	for _, u := range script(g, 15, rng) {
		if _, err := m.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	live := m.Graph()
	a := AnalyzeBiconnectivity(live, m.Tree(), m.PseudoRoot())
	st := StaticDFS(live)
	b := AnalyzeBiconnectivity(live, st, live.NumVertexSlots())
	ap1, ap2 := a.ArticulationPoints(), b.ArticulationPoints()
	if len(ap1) != len(ap2) {
		t.Fatalf("articulation mismatch: %v vs %v", ap1, ap2)
	}
	for i := range ap1 {
		if ap1[i] != ap2[i] {
			t.Fatalf("articulation mismatch: %v vs %v", ap1, ap2)
		}
	}
	br1, br2 := a.Bridges(), b.Bridges()
	if len(br1) != len(br2) {
		t.Fatalf("bridge mismatch: %v vs %v", br1, br2)
	}
}

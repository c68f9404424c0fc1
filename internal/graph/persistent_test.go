package graph

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// edgeSet is the reference model the persistent graph is checked against:
// a liveness flag per vertex slot and a set of canonical edges.
type edgeSet struct {
	live  []bool
	edges map[Edge]bool
}

func modelOf(p *Persistent) *edgeSet {
	s := &edgeSet{edges: map[Edge]bool{}}
	for v := 0; v < p.NumVertexSlots(); v++ {
		s.live = append(s.live, p.IsVertex(v))
	}
	for _, e := range p.Edges() {
		s.edges[e] = true
	}
	return s
}

func (s *edgeSet) neighbors(v int) []int {
	var out []int
	for u := range s.live {
		if s.edges[Edge{u, v}.Canon()] {
			out = append(out, u)
		}
	}
	return out
}

// components labels live vertices by the smallest vertex of their
// component, in order of that vertex, as ConnectedComponents numbers them.
func (s *edgeSet) components() ([]int, int) {
	root := make([]int, len(s.live))
	for v := range root {
		root[v] = v
	}
	var find func(int) int
	find = func(v int) int {
		if root[v] != v {
			root[v] = find(root[v])
		}
		return root[v]
	}
	for e := range s.edges {
		a, b := find(e.U), find(e.V)
		root[max(a, b)] = min(a, b)
	}
	label, byRoot := make([]int, len(s.live)), map[int]int{}
	for v := range s.live {
		label[v] = -1
		if s.live[v] {
			r := find(v)
			if _, ok := byRoot[r]; !ok {
				byRoot[r] = len(byRoot)
			}
			label[v] = byRoot[r]
		}
	}
	return label, len(byRoot)
}

// applyRandomUpdate makes the same random update to the model and the
// persistent graph, returning the new persistent version (or p itself when
// the picked update was a no-op for both).
func applyRandomUpdate(t *testing.T, p *Persistent, model *edgeSet, rng *rand.Rand) *Persistent {
	t.Helper()
	switch rng.Intn(4) {
	case 0:
		if e, ok := RandomEdgeNotIn(p, rng); ok {
			model.edges[e.Canon()] = true
			np, err := p.InsertEdge(e.U, e.V)
			if err != nil {
				t.Fatalf("persistent InsertEdge%v: %v", e, err)
			}
			return np
		}
	case 1:
		if e, ok := RandomExistingEdge(p, rng); ok {
			delete(model.edges, e.Canon())
			np, err := p.DeleteEdge(e.U, e.V)
			if err != nil {
				t.Fatalf("persistent DeleteEdge%v: %v", e, err)
			}
			return np
		}
	case 2:
		var nbrs []int
		for v, live := range model.live {
			if live && rng.Float64() < 0.2 {
				nbrs = append(nbrs, v)
			}
		}
		mv := len(model.live)
		model.live = append(model.live, true)
		for _, w := range nbrs {
			model.edges[Edge{w, mv}] = true
		}
		np, pv, err := p.InsertVertex(nbrs)
		if err != nil {
			t.Fatalf("persistent InsertVertex(%v): %v", nbrs, err)
		}
		if pv != mv {
			t.Fatalf("InsertVertex ID: persistent %d, model %d", pv, mv)
		}
		return np
	case 3:
		if p.NumVertices() > 2 {
			v := rng.Intn(len(model.live))
			if model.live[v] {
				model.live[v] = false
				for e := range model.edges {
					if e.U == v || e.V == v {
						delete(model.edges, e)
					}
				}
				np, err := p.DeleteVertex(v)
				if err != nil {
					t.Fatalf("persistent DeleteVertex(%d): %v", v, err)
				}
				return np
			}
		}
	}
	return p
}

// assertSame checks every read-API answer of p against the model.
func assertSame(t *testing.T, p *Persistent, model *edgeSet, ctx string) {
	t.Helper()
	n := 0
	for _, live := range model.live {
		if live {
			n++
		}
	}
	if p.NumVertexSlots() != len(model.live) || p.NumVertices() != n || p.NumEdges() != len(model.edges) {
		t.Fatalf("%s: sizes: persistent (%d,%d,%d) vs model (%d,%d,%d)", ctx,
			p.NumVertexSlots(), p.NumVertices(), p.NumEdges(), len(model.live), n, len(model.edges))
	}
	var edges []Edge
	for v, live := range model.live {
		if p.IsVertex(v) != live {
			t.Fatalf("%s: IsVertex(%d): %v vs %v", ctx, v, p.IsVertex(v), live)
		}
		want := model.neighbors(v)
		if got := p.SortedNeighbors(v); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SortedNeighbors(%d): %v vs %v", ctx, v, got, want)
		}
		if p.Degree(v) != len(want) || len(p.Row(v)) != len(want) {
			t.Fatalf("%s: Degree(%d) %d, len(Row) %d vs %d", ctx, v, p.Degree(v), len(p.Row(v)), len(want))
		}
		for _, w := range want {
			if w > v {
				edges = append(edges, Edge{v, w})
			}
		}
	}
	if got := p.Edges(); len(got) != len(edges) || len(edges) > 0 && !reflect.DeepEqual(got, edges) {
		t.Fatalf("%s: edge sets differ", ctx)
	}
	pl, pk := p.ConnectedComponents()
	ml, mk := model.components()
	if pk != mk || !reflect.DeepEqual(pl, ml) {
		t.Fatalf("%s: components differ: %d vs %d", ctx, pk, mk)
	}
}

// TestPersistentMatchesMutable drives the persistent graph and a mutable
// edge-set model through identical random update sequences (all four
// kinds) and demands identical read-API answers after every step.
func TestPersistentMatchesMutable(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(140) // spans the 64-vertex chunk boundary
		p := Gnp(n, 2.5/float64(n), rng)
		model := modelOf(p)
		assertSame(t, p, model, "initial")
		for step := 0; step < 40; step++ {
			p = applyRandomUpdate(t, p, model, rng)
			assertSame(t, p, model, "step")
		}
		// Rejected updates.
		if _, err := p.InsertEdge(0, 0); err == nil {
			t.Fatal("self loop accepted")
		}
		if _, err := p.DeleteEdge(-1, 3); err == nil {
			t.Fatal("bogus delete accepted")
		}
		if _, _, err := p.InsertVertex([]int{1, 1}); err == nil && model.live[1] {
			t.Fatal("duplicate neighbor accepted")
		}
		if _, err := p.DeleteVertex(p.NumVertexSlots() + 5); err == nil {
			t.Fatal("delete of non-vertex accepted")
		}
		// FromEdges plus the holes rebuilds the final state.
		rebuilt := MustFromEdges(p.NumVertexSlots(), p.Edges())
		for v, live := range model.live {
			if !live {
				var err error
				if rebuilt, err = rebuilt.DeleteVertex(v); err != nil {
					t.Fatalf("rebuild: DeleteVertex(%d): %v", v, err)
				}
			}
		}
		assertSame(t, rebuilt, model, "rebuild")
	}
}

// TestPersistentVersionRetention holds every produced version live across
// the whole update sequence and re-checks old versions against edge lists
// captured at their creation — path copying must never write into a
// published version. Run under -race, concurrent readers scan old versions
// while the writer goroutine keeps deriving new ones.
func TestPersistentVersionRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	n := 96
	p := GnpConnected(n, 3.0/float64(n), rng)
	model := modelOf(p)

	type epoch struct {
		p     *Persistent
		edges []Edge
	}
	history := []epoch{{p, p.Edges()}}

	const steps = 300
	versions := make(chan *Persistent, steps)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rd := rand.New(rand.NewSource(int64(500 + r)))
			var held []*Persistent
			for v := range versions {
				held = append(held, v)
				// Re-read a random retained version while the writer mutates.
				old := held[rd.Intn(len(held))]
				deg := 0
				for u := 0; u < old.NumVertexSlots(); u++ {
					deg += old.Degree(u)
				}
				if deg != 2*old.NumEdges() {
					t.Errorf("reader %d: degree sum %d != 2m %d", r, deg, 2*old.NumEdges())
					return
				}
			}
		}(r)
	}
	for step := 0; step < steps; step++ {
		p = applyRandomUpdate(t, p, model, rng)
		history = append(history, epoch{p, p.Edges()})
		versions <- p
	}
	close(versions)
	wg.Wait()

	for i, ep := range history {
		if got := ep.p.Edges(); !reflect.DeepEqual(got, ep.edges) {
			t.Fatalf("version %d changed after later updates: %d edges now, %d at creation",
				i, len(got), len(ep.edges))
		}
	}
	assertSame(t, p, model, "final")
}

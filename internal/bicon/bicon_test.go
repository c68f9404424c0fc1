package bicon

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/tree"
)

// naiveArticulation removes each vertex in turn and counts components.
func naiveArticulation(g *graph.Persistent) []int {
	var out []int
	_, base := g.ConnectedComponents()
	for v := 0; v < g.NumVertexSlots(); v++ {
		if !g.IsVertex(v) || g.Degree(v) == 0 {
			continue
		}
		c, err := g.DeleteVertex(v)
		if err != nil {
			panic(err)
		}
		_, k := c.ConnectedComponents()
		// Removing v drops one live vertex; disconnection means the count
		// of components among the REMAINING vertices exceeds base (minus
		// the possibly vanished singleton component of v itself).
		if k > base {
			out = append(out, v)
		}
	}
	return out
}

// naiveBridges removes each edge in turn.
func naiveBridges(g *graph.Persistent) []graph.Edge {
	var out []graph.Edge
	_, base := g.ConnectedComponents()
	for _, e := range g.Edges() {
		c, err := g.DeleteEdge(e.U, e.V)
		if err != nil {
			panic(err)
		}
		if _, k := c.ConnectedComponents(); k > base {
			out = append(out, e)
		}
	}
	return out
}

func analyze(g *graph.Persistent) *Analysis {
	t := baseline.StaticDFS(g)
	return Analyze(g, t, g.NumVertexSlots(), nil)
}

func TestArticulationAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(30)
		g := graph.Gnp(n, 2.5/float64(n), rng)
		got := analyze(g).ArticulationPoints()
		want := naiveArticulation(g)
		if !equalInts(got, want) {
			t.Fatalf("trial %d: articulation got %v want %v (edges %v)",
				trial, got, want, g.Edges())
		}
	}
}

func TestBridgesAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(30)
		g := graph.Gnp(n, 2.5/float64(n), rng)
		got := analyze(g).Bridges()
		want := naiveBridges(g)
		sort.Slice(want, func(i, j int) bool {
			if want[i].U != want[j].U {
				return want[i].U < want[j].U
			}
			return want[i].V < want[j].V
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: bridges got %v want %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: bridges got %v want %v", trial, got, want)
			}
		}
	}
}

func TestKnownTopologies(t *testing.T) {
	// Path: every interior vertex is an articulation point, every edge a
	// bridge.
	a := analyze(graph.Path(6))
	if got := a.ArticulationPoints(); len(got) != 4 {
		t.Fatalf("path articulation points: %v", got)
	}
	if got := a.Bridges(); len(got) != 5 {
		t.Fatalf("path bridges: %v", got)
	}
	// Cycle: biconnected — nothing.
	a = analyze(graph.Cycle(6))
	if len(a.ArticulationPoints()) != 0 || len(a.Bridges()) != 0 {
		t.Fatalf("cycle should be biconnected: %v %v",
			a.ArticulationPoints(), a.Bridges())
	}
	if a.NumComponents() != 1 {
		t.Fatalf("cycle components=%d want 1", a.NumComponents())
	}
	// Star: center is the only articulation point; all edges bridges.
	a = analyze(graph.Star(5))
	if got := a.ArticulationPoints(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("star articulation points: %v", got)
	}
	// Two triangles sharing vertex 0.
	g := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 0, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
	})
	a = analyze(g)
	if got := a.ArticulationPoints(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("bowtie articulation points: %v", got)
	}
	if a.NumComponents() != 2 {
		t.Fatalf("bowtie biconnected components=%d want 2", a.NumComponents())
	}
}

func TestBiconnectedComponentsConsistent(t *testing.T) {
	// Two tree edges in the same biconnected component iff some cycle spans
	// them; spot-check on the bowtie and a random graph via bridges: a
	// bridge is always alone in its component.
	rng := rand.New(rand.NewSource(193))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(25)
		g := graph.GnpConnected(n, 2.0/float64(n), rng)
		tr := baseline.StaticDFS(g)
		a := Analyze(g, tr, g.NumVertexSlots(), nil)
		compSize := map[int]int{}
		for v := 0; v < n; v++ {
			if id := a.ComponentOf(v); id >= 0 {
				compSize[id]++
			}
		}
		for _, b := range a.Bridges() {
			child := b.U
			if tr.Parent[b.V] == b.U {
				child = b.V
			}
			if compSize[a.ComponentOf(child)] != 1 {
				t.Fatalf("trial %d: bridge %v shares component", trial, b)
			}
		}
	}
}

func TestLowPoints(t *testing.T) {
	// Cycle 0-1-2-3-0: DFS tree is the path, low of every vertex is 0.
	g := graph.Cycle(4)
	tr := baseline.StaticDFS(g)
	a := Analyze(g, tr, g.NumVertexSlots(), nil)
	for v := 0; v < 4; v++ {
		if a.Low(v) != tr.Level(tr.Root)+1 && a.Low(v) != 1 {
			t.Fatalf("low(%d)=%d", v, a.Low(v))
		}
	}
	_ = tree.None
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

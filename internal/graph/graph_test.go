package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestInsertDeleteEdge(t *testing.T) {
	g0 := NewPersistent(4)
	g, err := g0.InsertEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("edge (1,0) missing after insert (0,1)")
	}
	if g.NumEdges() != 1 || g0.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d (predecessor %d), want 1 (0)", g.NumEdges(), g0.NumEdges())
	}
	if _, err := g.InsertEdge(0, 1); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if _, err := g.InsertEdge(2, 2); err == nil {
		t.Fatal("self loop accepted")
	}
	g2, err := g.DeleteEdge(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.HasEdge(0, 1) || g2.NumEdges() != 0 || !g.HasEdge(0, 1) {
		t.Fatal("edge survives deletion, or deletion leaked into the predecessor")
	}
	if _, err := g2.DeleteEdge(0, 1); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestVertexUpdates(t *testing.T) {
	g, v, err := Path(3).InsertVertex([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 || !g.HasEdge(3, 0) || !g.HasEdge(3, 2) {
		t.Fatalf("vertex insert wrong: id=%d", v)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d, want 4,4", g.NumVertices(), g.NumEdges())
	}
	if g, err = g.DeleteVertex(1); err != nil {
		t.Fatal(err)
	}
	if g.IsVertex(1) || g.HasEdge(0, 1) || g.HasEdge(1, 2) {
		t.Fatal("vertex 1 not fully deleted")
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("after delete: n=%d m=%d, want 3,2", g.NumVertices(), g.NumEdges())
	}
	if _, _, err := g.InsertVertex([]int{1}); err == nil {
		t.Fatal("neighbor may not be a deleted vertex")
	}
	if _, err := g.DeleteVertex(1); err == nil {
		t.Fatal("double vertex delete accepted")
	}
}

// TestFromEdgesRejects pins the bulk builder's input checks.
func TestFromEdgesRejects(t *testing.T) {
	for _, c := range []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"self loop", 3, []Edge{{0, 1}, {2, 2}}},
		{"duplicate", 3, []Edge{{0, 1}, {1, 2}, {0, 1}}},
		{"reversed duplicate", 3, []Edge{{0, 1}, {1, 0}}},
		{"endpoint past n", 3, []Edge{{0, 3}}},
		{"negative endpoint", 3, []Edge{{-1, 2}}},
		{"negative n", -1, nil},
	} {
		if _, err := FromEdges(c.n, c.edges); err == nil {
			t.Errorf("%s: FromEdges(%d, %v) accepted", c.name, c.n, c.edges)
		}
	}
	g, err := FromEdges(5, []Edge{{3, 1}, {0, 4}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Edge{{0, 1}, {0, 4}, {1, 3}}; !reflect.DeepEqual(g.Edges(), want) ||
		g.NumVertices() != 5 || g.NumEdges() != 3 {
		t.Fatalf("FromEdges: n=%d edges %v, want 5 and %v", g.NumVertices(), g.Edges(), want)
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name string
		g    *Persistent
		n, m int
		conn bool
	}{
		{"path", Path(10), 10, 9, true},
		{"cycle", Cycle(10), 10, 10, true},
		{"star", Star(10), 10, 9, true},
		{"complete", Complete(6), 6, 15, true},
		{"binarytree", BinaryTree(15), 15, 14, true},
		{"broom", Broom(10, 4), 10, 4 + 2*5, true},
		{"grid", Grid(4, 5), 20, 4*4 + 3*5, true},
		{"caterpillar", Caterpillar(5, 2), 15, 14, true},
	}
	for _, c := range cases {
		if c.g.NumVertices() != c.n {
			t.Errorf("%s: n=%d want %d", c.name, c.g.NumVertices(), c.n)
		}
		if c.g.NumEdges() != c.m {
			t.Errorf("%s: m=%d want %d", c.name, c.g.NumEdges(), c.m)
		}
		if c.g.IsConnected() != c.conn {
			t.Errorf("%s: connected=%v want %v", c.name, c.g.IsConnected(), c.conn)
		}
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		g := RandomTree(n, rng)
		if g.NumEdges() != n-1 || !g.IsConnected() {
			t.Fatalf("RandomTree(%d): m=%d connected=%v", n, g.NumEdges(), g.IsConnected())
		}
	}
}

func TestGnpEdgeCountConcentration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, p := 200, 0.1
	total := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		total += Gnp(n, p, rng).NumEdges()
	}
	mean := float64(total) / trials
	want := p * float64(n*(n-1)/2)
	if mean < want*0.85 || mean > want*1.15 {
		t.Fatalf("Gnp mean edges %.1f, want ~%.1f", mean, want)
	}
}

func TestGnpExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if g := Gnp(10, 0, rng); g.NumEdges() != 0 {
		t.Fatal("p=0 produced edges")
	}
	if g := Gnp(10, 1, rng); g.NumEdges() != 45 {
		t.Fatalf("p=1 produced %d edges, want 45", g.NumEdges())
	}
}

func TestConnectedComponents(t *testing.T) {
	g := MustFromEdges(6, []Edge{{0, 1}, {2, 3}, {3, 4}})
	label, k := g.ConnectedComponents()
	if k != 3 {
		t.Fatalf("components=%d, want 3", k)
	}
	if label[0] != label[1] || label[2] != label[3] || label[3] != label[4] {
		t.Fatalf("bad labels %v", label)
	}
	if label[0] == label[2] || label[2] == label[5] {
		t.Fatalf("merged distinct components: %v", label)
	}
	g, err := g.DeleteVertex(5)
	if err != nil {
		t.Fatal(err)
	}
	if label, k = g.ConnectedComponents(); k != 2 || label[5] != -1 {
		t.Fatalf("after delete: k=%d label[5]=%d", k, label[5])
	}
}

func TestDiameter(t *testing.T) {
	if d := Path(10).Diameter(); d != 9 {
		t.Fatalf("path diameter=%d want 9", d)
	}
	if d := Cycle(10).Diameter(); d != 5 {
		t.Fatalf("cycle diameter=%d want 5", d)
	}
	if d := Complete(5).Diameter(); d != 1 {
		t.Fatalf("K5 diameter=%d want 1", d)
	}
	if d := MustFromEdges(4, []Edge{{0, 1}}).Diameter(); d != -1 {
		t.Fatalf("disconnected diameter=%d want -1", d)
	}
}

func TestRandomEdgeHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := Path(6)
	for i := 0; i < 50; i++ {
		e, ok := RandomEdgeNotIn(g, rng)
		if !ok {
			t.Fatal("no non-edge found in sparse graph")
		}
		if g.HasEdge(e.U, e.V) || e.U == e.V {
			t.Fatalf("RandomEdgeNotIn returned bad edge %v", e)
		}
		e2, ok := RandomExistingEdge(g, rng)
		if !ok || !g.HasEdge(e2.U, e2.V) {
			t.Fatalf("RandomExistingEdge returned %v ok=%v", e2, ok)
		}
	}
	if _, ok := RandomEdgeNotIn(Complete(4), rng); ok {
		t.Fatal("found non-edge in complete graph")
	}
}

func TestEdgeCanonOther(t *testing.T) {
	e := Edge{5, 2}
	if e.Canon() != (Edge{2, 5}) {
		t.Fatalf("Canon=%v", e.Canon())
	}
	if e.Other(5) != 2 || e.Other(2) != 5 {
		t.Fatal("Other broken")
	}
}

// Property: edges reported by Edges() round-trip through FromEdges.
func TestEdgesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Gnp(30, 0.15, rng)
		h := MustFromEdges(30, g.Edges())
		if h.NumEdges() != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if !h.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCycleOfCliques(t *testing.T) {
	g := CycleOfCliques(6, 4)
	if g.NumVertices() != 24 || !g.IsConnected() {
		t.Fatalf("n=%d connected=%v", g.NumVertices(), g.IsConnected())
	}
	d := g.Diameter()
	if d < 3 {
		t.Fatalf("cycle of 6 cliques should have diameter >= 3, got %d", d)
	}
}

package bicon

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
)

// fuzzGraph decodes data into a graph of at most 12 vertex slots: data[0]
// picks the slot count, data[1] how far past the last slot the pseudo root
// sits, data[2:4] a mask of slots deleted after the edges are in (holes),
// and every later byte one edge, its endpoints the high and low nibble
// modulo the slot count. Self-loops and repeated pairs are skipped.
func fuzzGraph(data []byte) (g *graph.Persistent, pseudo int, ok bool) {
	if len(data) < 4 {
		return nil, 0, false
	}
	n := 1 + int(data[0])%12
	holes := int(data[2]) | int(data[3])<<8
	seen := map[graph.Edge]bool{}
	var edges []graph.Edge
	for _, b := range data[4:] {
		e := graph.Edge{U: int(b>>4) % n, V: int(b&15) % n}.Canon()
		if e.U != e.V && !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	g = graph.MustFromEdges(n, edges)
	for v := 0; v < n; v++ {
		if holes>>v&1 == 1 {
			var err error
			if g, err = g.DeleteVertex(v); err != nil {
				panic(err)
			}
		}
	}
	return g, n + int(data[1])%4, true
}

// FuzzBicon holds Analyze, run on a static DFS tree under a pseudo root
// past the last slot, to the naive oracles: articulation points against
// deleting each vertex, bridges against deleting each edge, and the
// component labels against the bridges. A bridge's tree edge is alone in
// its biconnected component, and any other tree edge lies on the cycle its
// covering back edge closes, which holds at least two tree edges.
func FuzzBicon(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0, 0x01, 0x12, 0x23, 0x34, 0x40})              // cycle
	f.Add([]byte{4, 3, 0, 0, 0x01, 0x12, 0x20, 0x03, 0x34, 0x40})        // bowtie
	f.Add([]byte{7, 1, 0x08, 0, 0x01, 0x12, 0x23, 0x34, 0x45, 0x56})     // path, one hole
	f.Add([]byte{11, 2, 0x21, 0x04, 0x01, 0x12, 0x20, 0x56, 0x67, 0x9a}) // forest with holes
	f.Fuzz(func(t *testing.T, data []byte) {
		g, pseudo, ok := fuzzGraph(data)
		if !ok {
			return
		}
		tr := baseline.StaticDFSUnder(g, pseudo)
		a := Analyze(g, tr, pseudo, nil)
		n := g.NumVertexSlots()

		want := naiveArticulation(g)
		for v := 0; v < n; v++ {
			if got := a.IsArticulation(v); got != slices.Contains(want, v) {
				t.Fatalf("IsArticulation(%d) = %v, naive articulation points %v (edges %v)", v, got, want, g.Edges())
			}
		}
		bridges := a.Bridges()
		nb := naiveBridges(g)
		slices.SortFunc(nb, func(x, y graph.Edge) int { return cmp.Or(x.U-y.U, x.V-y.V) })
		if !slices.Equal(bridges, nb) {
			t.Fatalf("Bridges() = %v, naive %v (edges %v)", bridges, nb, g.Edges())
		}

		size := make([]int, a.NumComponents())
		for v := 0; v < tr.N(); v++ {
			id := a.ComponentOf(v)
			treeEdge := tr.Present(v) && v != pseudo && tr.Parent[v] != pseudo
			if (id >= 0) != treeEdge || id >= len(size) {
				t.Fatalf("ComponentOf(%d) = %d of %d components; tree edge above it: %v", v, id, len(size), treeEdge)
			}
			if id >= 0 {
				size[id]++
			}
		}
		for id, k := range size {
			if k == 0 {
				t.Fatalf("component %d labels no tree edge", id)
			}
		}
		for v := 0; v < n; v++ {
			if id := a.ComponentOf(v); id >= 0 {
				isBridge := slices.Contains(bridges, graph.Edge{U: tr.Parent[v], V: v}.Canon())
				if (size[id] == 1) != isBridge {
					t.Fatalf("tree edge (%d,%d): bridge %v, but its component holds %d tree edges", tr.Parent[v], v, isBridge, size[id])
				}
			}
		}
	})
}

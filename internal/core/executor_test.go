package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzExecutorParity drives a SubtreeDFS maintainer and a Parallel one with
// one decoded update sequence. The two executors run the same reduction
// and build different, equally valid DFS trees, so parent arrays are not
// compared: after every step both must agree on whether the update was
// rejected, hold the same graph, and carry a valid DFS forest with D in
// sync where there is one. The SubtreeDFS maintainer holds no D; the
// Parallel one rebuilds its D after every update, and its D check fails
// when that D differs from a fresh build. CheckSynced also checks each
// tree's own LCA index, the one the serving layer publishes.
//
// Input layout: byte 0 picks n (4..12), byte 1 the number of initial edge
// bytes (each packs two endpoints in its nibbles), then three bytes per
// update: an op byte (bits 0-1 kind, bit 2 out-of-range ID, bits 3-4 which
// bad ID, bit 5 swap or repeat) and two operand bytes.
func FuzzExecutorParity(f *testing.F) {
	path := []byte{0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67}
	seed := func(n byte, edges []byte, steps ...byte) []byte {
		return append(append([]byte{n - 4, byte(len(edges))}, edges...), steps...)
	}
	f.Add(seed(8, []byte{0x01, 0x12, 0x45}, 0, 2, 5, 0, 0, 7, 0, 3, 1))   // InsertEdge: merge, back, cross
	f.Add(seed(8, append(path, 0x70), 1, 3, 0, 1, 0, 0, 1, 6, 0))         // DeleteEdge: reattach and split
	f.Add(seed(8, path, 2, 0xa5, 0, 2, 0, 0, 2, 0x18, 0x01, 2|32, 3, 0))  // InsertVertex: hang, isolated, regroup, repeat
	f.Add(seed(8, append(path, 0x27, 0x05), 3, 3, 0, 3, 0, 0, 3, 7, 0))   // DeleteVertex: inner, component root, leaf
	f.Add(seed(6, path[:5], 1|4|2<<3, 0, 1, 1|4|32, 2, 3, 0|4|1<<3, 1, 0, // out-of-range IDs of every kind
		3|4|3<<3, 0, 0, 2|4, 0x03, 0, 1, 2, 0))
	f.Add(seed(12, []byte{0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67, 0x78, 0x89, 0x9a, 0xab, 0x36, 0x28, 0x5a},
		0, 0, 11, 1, 3, 0, 1, 5, 0, 3, 6, 0, 0, 2, 9)) // long cycles: every reroot restructures
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 4 + int(data[0])%9
		var edges []graph.Edge
		k := min(int(data[1])%24, len(data)-2)
		for _, b := range data[2 : 2+k] {
			if e := (graph.Edge{U: int(b>>4) % n, V: int(b&15) % n}).Canon(); e.U != e.V && !slices.Contains(edges, e) {
				edges = append(edges, e)
			}
		}
		g := graph.MustFromEdges(n, edges)
		data = data[2+k:]
		dfs := New(g, Options{RebuildD: true})
		par := New(g, Options{RebuildD: true, Executor: Parallel})
		checkExecutorParity(t, dfs, par, "initial")
		for step := 0; step < 40 && len(data) >= 3; step++ {
			u := decodeFuzzUpdate(dfs, data[0], data[1], data[2])
			data = data[3:]
			_, dfsErr := dfs.Apply(u)
			_, parErr := par.Apply(u)
			ctx := fmt.Sprintf("step %d %+v", step, u)
			if (dfsErr == nil) != (parErr == nil) {
				t.Fatalf("%s: subtree-DFS error %v, parallel error %v", ctx, dfsErr, parErr)
			}
			checkExecutorParity(t, dfs, par, ctx)
		}
	})
}

// decodeFuzzUpdate turns one op byte and two operands into an update against
// dd's current graph. Edge deletions pick an existing edge by index unless
// the op asks for an out-of-range ID, which then replaces one endpoint.
func decodeFuzzUpdate(dd *DynamicDFS, op, a, b byte) Update {
	g := dd.Graph()
	slots := g.NumVertexSlots()
	u := Update{Kind: UpdateKind(op & 3), U: int(a) % slots, V: int(b) % slots}
	bad := []int{-1, slots, 1 << 20, dd.PseudoRoot()}[op>>3&3]
	flip := op&32 != 0
	switch u.Kind {
	case DeleteEdge:
		if es := g.Edges(); len(es) > 0 && op&4 == 0 {
			e := es[int(a)%len(es)]
			u.U, u.V = e.U, e.V
		}
	case InsertVertex:
		for v := 0; v < min(slots, 16); v++ {
			if (int(a)|int(b)<<8)>>v&1 != 0 && g.IsVertex(v) {
				u.Neighbors = append(u.Neighbors, v)
			}
		}
		if op&4 != 0 {
			u.Neighbors = append(u.Neighbors, bad)
		}
		if flip && len(u.Neighbors) > 0 {
			u.Neighbors = append(u.Neighbors, u.Neighbors[0])
		}
		return u
	case DeleteVertex:
		if op&4 != 0 {
			u.U = bad
		}
		return u
	}
	if op&4 != 0 {
		u.V = bad
	}
	if flip {
		u.U, u.V = u.V, u.U
	}
	return u
}

// checkExecutorParity asserts that both maintainers hold the same graph
// and that each passes its own CheckSynced: a DFS forest of the graph, the
// tree's LCA index, and D in sync where there is one.
func checkExecutorParity(t *testing.T, dfs, par *DynamicDFS, ctx string) {
	t.Helper()
	g, pg := dfs.Graph(), par.Graph()
	if g.NumVertexSlots() != pg.NumVertexSlots() {
		t.Fatalf("%s: %d vertex slots under subtree DFS, %d under parallel", ctx, g.NumVertexSlots(), pg.NumVertexSlots())
	}
	for v := 0; v < g.NumVertexSlots(); v++ {
		if g.IsVertex(v) != pg.IsVertex(v) {
			t.Fatalf("%s: vertex %d live %v under subtree DFS, %v under parallel", ctx, v, g.IsVertex(v), pg.IsVertex(v))
		}
	}
	if got, want := g.Edges(), pg.Edges(); !slices.Equal(got, want) {
		t.Fatalf("%s: subtree-DFS edges %v, parallel edges %v", ctx, got, want)
	}
	for name, dd := range map[string]*DynamicDFS{"subtree-DFS": dfs, "parallel": par} {
		if err := dd.CheckSynced(); err != nil {
			t.Fatalf("%s: %s: %v", ctx, name, err)
		}
	}
}

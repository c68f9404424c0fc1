package stream

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/verify"
)

// FuzzMaintainerParity drives the core and the streaming maintainer with
// one decoded update sequence. Both run the one Section 3 reduction
// (reroot.Planner) and differ only in the oracle answering its queries, so
// after every step they must agree on whether the update was rejected,
// hold the same graph, and build the same DFS tree, parent for parent.
//
// Input layout: byte 0 picks n (4..12), byte 1 the number of initial edge
// bytes (each packs two endpoints in its nibbles), then three bytes per
// update: an op byte (bits 0-1 kind, bit 2 out-of-range ID, bits 3-4 which
// bad ID, bit 5 swap or repeat) and two operand bytes.
func FuzzMaintainerParity(f *testing.F) {
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
		dd := core.New(g, core.Options{RebuildD: true, Executor: core.Parallel})
		m := New(g)
		checkParity(t, dd, m, "initial")
		for step := 0; step < 40 && len(data) >= 3; step++ {
			u := decodeUpdate(dd, m.PseudoRoot(), data[0], data[1], data[2])
			data = data[3:]
			_, coreErr := dd.Apply(u)
			err := applyStream(m, u)
			if (err == nil) != (coreErr == nil) {
				t.Fatalf("step %d %+v: stream error %v, core error %v", step, u, err, coreErr)
			}
			checkParity(t, dd, m, fmt.Sprintf("step %d %+v", step, u))
		}
	})
}

// decodeUpdate turns one op byte and two operands into an update against
// dd's current graph. Edge deletions pick an existing edge by index unless
// the op asks for an out-of-range ID, which then replaces one endpoint.
func decodeUpdate(dd *core.DynamicDFS, pseudo int, op, a, b byte) core.Update {
	g := dd.Graph()
	slots := g.NumVertexSlots()
	u := core.Update{Kind: core.UpdateKind(op & 3), U: int(a) % slots, V: int(b) % slots}
	bad := []int{-1, slots, 1 << 20, pseudo}[op>>3&3]
	flip := op&32 != 0
	switch u.Kind {
	case core.DeleteEdge:
		if es := g.Edges(); len(es) > 0 && op&4 == 0 {
			e := es[int(a)%len(es)]
			u.U, u.V = e.U, e.V
		}
	case core.InsertVertex:
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
	case core.DeleteVertex:
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

// applyStream applies u to the streaming maintainer.
func applyStream(m *Maintainer, u core.Update) error {
	switch u.Kind {
	case core.InsertEdge:
		return m.InsertEdge(u.U, u.V)
	case core.DeleteEdge:
		return m.DeleteEdge(u.U, u.V)
	case core.InsertVertex:
		_, err := m.InsertVertex(u.Neighbors)
		return err
	case core.DeleteVertex:
		return m.DeleteVertex(u.U)
	}
	return fmt.Errorf("unknown update kind %d", u.Kind)
}

// checkParity asserts that both maintainers hold the same graph, that each
// tree is a DFS forest of it with D in sync on the core side, and that the
// two trees are identical.
func checkParity(t *testing.T, dd *core.DynamicDFS, m *Maintainer, ctx string) {
	t.Helper()
	g := dd.Graph()
	if g.NumVertexSlots() != m.slots {
		t.Fatalf("%s: core has %d vertex slots, stream %d", ctx, g.NumVertexSlots(), m.slots)
	}
	for v := 0; v < m.slots; v++ {
		if g.IsVertex(v) != m.alive[v] {
			t.Fatalf("%s: vertex %d live in core %v, stream %v", ctx, v, g.IsVertex(v), m.alive[v])
		}
	}
	got := slices.Clone(m.s.edges)
	slices.SortFunc(got, func(x, y graph.Edge) int {
		if x.U != y.U {
			return x.U - y.U
		}
		return x.V - y.V
	})
	if want := g.Edges(); !slices.Equal(got, want) {
		t.Fatalf("%s: stream edges %v, core edges %v", ctx, got, want)
	}
	if err := verify.DFSForest(g, dd.Tree(), dd.PseudoRoot()); err != nil {
		t.Fatalf("%s: core tree: %v", ctx, err)
	}
	if err := verify.DFSForest(g, m.Tree(), m.PseudoRoot()); err != nil {
		t.Fatalf("%s: stream tree: %v", ctx, err)
	}
	if err := dd.D().CheckSynced(g, dd.Tree()); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if !slices.Equal(dd.Tree().Parent, m.Tree().Parent) {
		t.Fatalf("%s: parent arrays differ\ncore   %v\nstream %v", ctx, dd.Tree().Parent, m.Tree().Parent)
	}
}

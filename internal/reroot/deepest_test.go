package reroot

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dstruct"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/tree"
	"repro/internal/verify"
)

// FuzzDeepestEdge holds the row planner (NewRowPlanner, which scans the
// updated graph's rows for deepest edges) to the D-backed planner on
// fuzzed graphs, DFS trees and update sequences. Every plan must equal,
// step for step, the plan over a D built on the old tree and patched with
// the update, as the maintainers run it; a delete's plan must also equal
// the plan over a D built afresh on the updated graph and the old tree.
// Both planners must charge the machine the same. Each plan then runs on a
// SubtreeDFS engine, whose O(1) removed count must equal the vertices the
// new tree dropped and whose moved count must cover every vertex that got a
// new parent, and the resulting DFS forest carries on to the next update.
//
// Input layout: byte 0 picks n (4..16), byte 1 seeds the visit order of
// the initial DFS, byte 2 the number of initial edge bytes (each packs two
// endpoints in its nibbles), then two bytes per update: an op byte (bits
// 0-1 kind) and an operand byte.
func FuzzDeepestEdge(f *testing.F) {
	path := []byte{0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67}
	seed := func(n, order byte, edges []byte, steps ...byte) []byte {
		return append(append([]byte{n - 4, order, byte(len(edges))}, edges...), steps...)
	}
	f.Add(seed(8, 0, append(path, 0x70, 0x52, 0x63), 1, 0, 1, 3, 3, 4, 3, 1)) // reattach through back edges
	f.Add(seed(8, 1, path, 1, 2, 3, 5))                                       // splits: no edge back up
	f.Add(seed(6, 2, []byte{0x01, 0x12, 0x23, 0x34, 0x45, 0x30, 0x40, 0x41},  // several sources reach one z: ties by U
		1, 1, 3, 1, 1, 0))
	f.Add(seed(12, 3, []byte{0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67, 0x78, 0x89, 0x9a, 0xab, 0x36, 0x28, 0x5a, 0xb0},
		0, 0x2b, 2, 0x35, 1, 4, 3, 7, 1, 9, 3, 2)) // inserts between deletes reshape the tree
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 4 + int(data[0])%13
		rng := rand.New(rand.NewSource(int64(data[1])))
		var edges []graph.Edge
		k := min(int(data[2])%32, len(data)-3)
		for _, b := range data[3 : 3+k] {
			if e := (graph.Edge{U: int(b>>4) % n, V: int(b&15) % n}).Canon(); e.U != e.V && !slices.Contains(edges, e) {
				edges = append(edges, e)
			}
		}
		data = data[3+k:]
		g := graph.MustFromEdges(n, edges)
		pseudo := n + 8
		tr := randomDFS(g, pseudo, rng)
		for step := 0; step < 40 && len(data) >= 2; step++ {
			op, a := data[0], int(data[1])
			data = data[2:]
			ng, plan, ok := planBoth(t, g, tr, op, a)
			if !ok {
				continue
			}
			g = ng
			if len(plan.Steps) == 0 {
				continue
			}
			e := New(tr, nil, pram.NewMachine(tr.Live()))
			e.Executor, e.G = SubtreeDFS, g
			if err := plan.Run(e, nil); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			nt, err := e.Result(pseudo, presentIn(g, pseudo))
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := verify.DFSForest(g, nt, pseudo); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if moved, removed := reparented(tr, nt); e.NumMoved() < moved || e.NumRemoved() != removed {
				t.Fatalf("step %d: counted %d moved / %d removed, but %d vertices got a new parent and %d left the tree",
					step, e.NumMoved(), e.NumRemoved(), moved, removed)
			}
			tr = nt
		}
	})
}

// reparented counts the vertices of nt whose parent differs from their
// parent in tr (new vertices included), and the vertices of tr that nt
// dropped.
func reparented(tr, nt *tree.Tree) (moved, removed int) {
	for v := 0; v < max(tr.N(), nt.N()); v++ {
		was, is := v < tr.N() && tr.Present(v), v < nt.N() && nt.Present(v)
		switch {
		case was && !is:
			removed++
		case is && (!was || tr.Parent[v] != nt.Parent[v]):
			moved++
		}
	}
	return moved, removed
}

// planBoth applies the update the op byte and operand decode to against g
// and reduces it with the row planner and with D-backed planners over the
// old tree tr, failing the test unless every plan and machine charge
// agrees. It returns the updated graph and the plan, or ok == false for an
// update the graph rejects or that would reach the pseudo root's ID.
func planBoth(t *testing.T, g *graph.Persistent, tr *tree.Tree, op byte, a int) (*graph.Persistent, Plan, bool) {
	t.Helper()
	slots := g.NumVertexSlots()
	d := dstruct.Build(g, tr, nil)
	var ng *graph.Persistent
	var err error
	var plan func(p Planner) Plan
	switch op & 3 {
	case 0: // insert edge
		u, v := a%slots, (a/slots+int(op>>2))%slots
		if ng, err = g.InsertEdge(u, v); err == nil {
			d.PatchInsertEdge(u, v)
			plan = func(p Planner) Plan { return p.InsertEdge(u, v) }
		}
	case 1: // delete edge
		es := g.Edges()
		if len(es) == 0 {
			return nil, Plan{}, false
		}
		e := es[a%len(es)]
		if ng, err = g.DeleteEdge(e.U, e.V); err == nil {
			d.PatchDeleteEdge(e.U, e.V)
			plan = func(p Planner) Plan { return p.DeleteEdge(e.U, e.V) }
		}
	case 2: // insert vertex
		if slots+1 >= tr.Root {
			return nil, Plan{}, false
		}
		var nbrs []int
		for v := 0; v < min(slots, 8); v++ {
			if (a|int(op)<<6)>>v&1 != 0 && g.IsVertex(v) {
				nbrs = append(nbrs, v)
			}
		}
		var u int
		if ng, u, err = g.InsertVertex(nbrs); err == nil {
			d.PatchInsertVertex(u, nbrs)
			plan = func(p Planner) Plan { return p.InsertVertex(u, nbrs) }
		}
	default: // delete vertex
		u := a % slots
		nbrs := g.SortedNeighbors(u)
		if ng, err = g.DeleteVertex(u); err == nil {
			d.PatchDeleteVertex(u, nbrs)
			plan = func(p Planner) Plan { return p.DeleteVertex(u) }
		}
	}
	if err != nil {
		return nil, Plan{}, false
	}
	mRow, mD := pram.NewMachine(1), pram.NewMachine(1)
	got := plan(NewRowPlanner(tr, ng, mRow))
	want := plan(NewPlanner(tr, d, mD, nil))
	if !samePlan(got, want) {
		t.Fatalf("op %d operand %d: row plan %+v, D plan %+v", op&3, a, got, want)
	}
	if mRow.Depth() != mD.Depth() || mRow.Work() != mD.Work() {
		t.Fatalf("op %d operand %d: row planner charged depth %d work %d, D planner %d/%d",
			op&3, a, mRow.Depth(), mRow.Work(), mD.Depth(), mD.Work())
	}
	if op&1 == 1 { // a delete: D built on the updated graph answers alike
		if fresh := plan(NewPlanner(tr, dstruct.Build(ng, tr, nil), pram.NewMachine(1), nil)); !samePlan(got, fresh) {
			t.Fatalf("op %d operand %d: row plan %+v, fresh-D plan %+v", op&3, a, got, fresh)
		}
	}
	return ng, got, true
}

func samePlan(a, b Plan) bool {
	return a.Rounds == b.Rounds && slices.Equal(a.Steps, b.Steps)
}

// randomDFS returns a DFS forest of g under pseudo whose component roots
// and child order follow rng, so the fuzzer sees trees no fixed visit
// order would build.
func randomDFS(g *graph.Persistent, pseudo int, rng *rand.Rand) *tree.Tree {
	n := g.NumVertexSlots()
	parent := make([]int, pseudo+1)
	for i := range parent {
		parent[i] = tree.None
	}
	visited := make([]bool, n)
	var visit func(v int)
	visit = func(v int) {
		visited[v] = true
		row := g.SortedNeighbors(v)
		rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		for _, w := range row {
			if !visited[w] {
				parent[w] = v
				visit(w)
			}
		}
	}
	for _, r := range rng.Perm(n) {
		if g.IsVertex(r) && !visited[r] {
			parent[r] = pseudo
			visit(r)
		}
	}
	return tree.MustBuild(pseudo, parent, presentIn(g, pseudo))
}

// presentIn marks g's live vertices and the pseudo root.
func presentIn(g *graph.Persistent, pseudo int) []bool {
	p := make([]bool, pseudo+1)
	for v := 0; v < g.NumVertexSlots(); v++ {
		p[v] = g.IsVertex(v)
	}
	p[pseudo] = true
	return p
}

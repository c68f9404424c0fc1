package reroot

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/dstruct"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/tree"
	"repro/internal/verify"
)

// FuzzDeepestEdge holds the row planner (NewRowPlanner, which finds deepest
// edges in the updated graph's rows) to the D-backed planner on
// fuzzed graphs, DFS trees and update sequences. On every deepest-edge
// query a delete asks, the walk up from low with no budget must answer as
// the row scan does (checkArms): at n ≤ 16 the default budget mostly sends
// the planner to the scan. Every plan must equal,
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
			nt, e, err := runPlan(tr, g, plan)
			if err == nil {
				err = verify.DFSForest(g, nt, pseudo)
			}
			if err != nil {
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

// runPlan runs plan on a SubtreeDFS engine over tr and returns the new
// forest under tr's root, with the engine.
func runPlan(tr *tree.Tree, g *graph.Persistent, plan Plan) (*tree.Tree, *Engine, error) {
	e := New(tr, nil, pram.NewMachine(tr.Live()))
	e.Executor, e.G = SubtreeDFS, g
	if err := plan.Run(e, nil); err != nil {
		return nil, nil, err
	}
	nt, err := e.Result(tr.Root, presentIn(g, tr.Root))
	return nt, e, err
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
	var subs []int // the deepest-edge queries of a delete, all from low
	low := tree.None
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
			subs, low = deepestQueries(tr, e.U, e.V)
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
			subs, low = deepestQueries(tr, u, tree.None)
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
	checkArms(t, NewRowPlanner(tr, ng, nil), subs, low, d)
	return ng, got, true
}

// deepestQueries returns the subtrees whose deepest edge rehang looks up,
// all from the same low end, when the graph edge (u, v) — or, with v ==
// tree.None, the vertex u — is deleted from the graph tr spans: the child
// end of a tree edge, from its parent; every child of a vertex whose parent
// is not the pseudo root, from that parent. A back edge or a component
// root asks none.
func deepestQueries(tr *tree.Tree, u, v int) (subs []int, low int) {
	switch {
	case v == tree.None:
		if low = tr.Parent[u]; low == tr.Root {
			return nil, tree.None
		}
		for c := tr.FirstChild(u); c != tree.None; c = tr.NextSibling(c) {
			subs = append(subs, c)
		}
		return subs, low
	case tr.Parent[v] == u:
		return []int{v}, u
	case tr.Parent[u] == v:
		return []int{u}, v
	}
	return nil, tree.None
}

// checkArms fails t unless every arm of p's deepest-edge search answers the
// query for each T(sub) from low alike: the walk up from low with no budget,
// the default budget |T(sub)|, budget 0 (always the fallback) and the row
// scan itself, and, with d non-nil, D's EdgeToWalkBatch over rehang's walk.
// It returns the answers.
func checkArms(t testing.TB, p Planner, subs []int, low int, d *dstruct.D) []dstruct.WalkAnswer {
	t.Helper()
	tr := p.t
	var want []dstruct.WalkAnswer
	if d != nil && len(subs) > 0 {
		walk := tr.PathUp(low, tr.AncestorAtLevel(low, 1))
		qs := make([]dstruct.WalkQuery, len(subs))
		for i, sub := range subs {
			qs[i] = dstruct.WalkQuery{Sources: tr.SubtreeVertices(sub, nil), Walk: walk}
		}
		want = d.EdgeToWalkBatch(qs, nil)
	}
	got := make([]dstruct.WalkAnswer, len(subs))
	for i, sub := range subs {
		got[i] = p.scanRows(sub, low)
		for _, budget := range []int{0, tr.Size(sub), math.MaxInt} {
			if a := p.deepestEdge(sub, low, budget); a != got[i] {
				t.Fatalf("T(%d) from %d, budget %d: walk %+v, row scan %+v", sub, low, budget, a, got[i])
			}
		}
		if want != nil && (got[i].OK != want[i].OK || got[i].OK && got[i].Hit != want[i].Hit) {
			t.Fatalf("T(%d) from %d: row planner %+v, D %+v", sub, low, got[i], want[i])
		}
	}
	return got
}

// TestDeepestEdgeArms forces both arms of the row planner's deepest-edge
// search on every query rehang asks and requires them equal to each other
// and to D (checkArms). The inputs make the walk climb far and the budget
// trip: GnpConnected churn at n = 64…4096 with vertex deletes, a sparse Gnp
// forest with holes under the pseudo root, and deletes down the handle of
// brooms (every bristle's back edge ends at the handle's top, so deepest
// edges tie at one z) and along cycles. The inputs must cover split
// components, vertices deleted with several child subtrees, hits far above
// low, and ties broken by the smallest U.
func TestDeepestEdgeArms(t *testing.T) {
	var split, multi, far, ties int
	check := func(p Planner, ng *graph.Persistent, subs []int, low int) {
		for i, a := range checkArms(t, p, subs, low, dstruct.Build(ng, p.t, nil)) {
			if !a.OK {
				split++
				continue
			}
			if a.Hit.ZPos >= 16 {
				far++
			}
			inside := 0
			for _, w := range ng.Row(a.Hit.Z) {
				if p.t.Present(int(w)) && p.t.IsAncestor(subs[i], int(w)) {
					inside++
				}
			}
			if inside > 1 {
				ties++
			}
		}
		if len(subs) > 1 {
			multi++
		}
	}
	rng := rand.New(rand.NewSource(7))
	forest := newChurn(graph.Gnp(512, 1.5/512, rng), rng)
	for range 64 { // holes
		forest.step(t, true, func(Planner, *graph.Persistent, []int, int) {})
	}
	streams := []*churn{forest}
	for _, n := range []int{64, 256, 1024, 4096} {
		streams = append(streams, newChurn(graph.GnpConnected(n, 3/float64(n), rng), rng))
	}
	for _, c := range streams {
		for i := range 60 {
			c.step(t, i%4 == 3, check)
		}
		if err := verify.DFSForest(c.g, c.tr, c.tr.Root); err != nil {
			t.Fatalf("n=%d: %v", c.g.NumVertexSlots(), err)
		}
	}
	// deleteOnce checks the queries of deleting the edge (u, v), or the
	// vertex u when v == tree.None, from g spanned by tr.
	deleteOnce := func(g *graph.Persistent, tr *tree.Tree, u, v int) {
		var ng *graph.Persistent
		var err error
		if v == tree.None {
			ng, err = g.DeleteVertex(u)
		} else {
			ng, err = g.DeleteEdge(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		subs, low := deepestQueries(tr, u, v)
		check(NewRowPlanner(tr, ng, nil), ng, subs, low)
	}
	for _, b := range []struct{ n, handle int }{{64, 8}, {300, 200}, {1000, 100}} {
		g := graph.Broom(b.n, b.handle)
		tr := baseline.StaticDFSUnder(g, b.n)
		for k := 0; k < b.handle; k++ {
			deleteOnce(g, tr, k, k+1)
			deleteOnce(g, tr, k+1, tree.None)
		}
	}
	for _, n := range []int{16, 200} {
		g := graph.Cycle(n)
		tr := baseline.StaticDFSUnder(g, n)
		for k := 0; k+1 < n; k++ {
			deleteOnce(g, tr, k, k+1)
		}
	}
	if split == 0 || multi == 0 || far == 0 || ties == 0 {
		t.Fatalf("inputs cover %d splits, %d multi-subtree deletes, %d far hits, %d ties: want each", split, multi, far, ties)
	}
}

// churn replays random updates on a DFS forest under a pseudo root,
// planning each with the row planner and running it on a SubtreeDFS
// engine, as the serving maintainer does.
type churn struct {
	g   *graph.Persistent
	tr  *tree.Tree
	rng *rand.Rand
}

func newChurn(g *graph.Persistent, rng *rand.Rand) *churn {
	return &churn{g: g, tr: baseline.StaticDFSUnder(g, g.NumVertexSlots()), rng: rng}
}

// step applies one update: with delVertex, the deletion of a random vertex
// slot (a hole asks nothing); otherwise, as in BenchmarkUpdateExec's
// stream, an edge insert or delete at even odds. Before the forest moves
// on, query receives the row planner over the old forest and the updated
// graph, and the deepest-edge queries the update asks, if any.
func (c *churn) step(tb testing.TB, delVertex bool, query func(p Planner, ng *graph.Persistent, subs []int, low int)) {
	tb.Helper()
	var ng *graph.Persistent
	var err error
	var plan func(p Planner) Plan
	var subs []int
	low := tree.None
	var ins graph.Edge
	insert := false
	if !delVertex && c.rng.Intn(2) == 0 {
		ins, insert = graph.RandomEdgeNotIn(c.g, c.rng)
	}
	switch {
	case delVertex:
		u := c.rng.Intn(c.g.NumVertexSlots())
		if !c.g.IsVertex(u) {
			return
		}
		ng, err = c.g.DeleteVertex(u)
		subs, low = deepestQueries(c.tr, u, tree.None)
		plan = func(p Planner) Plan { return p.DeleteVertex(u) }
	case insert:
		ng, err = c.g.InsertEdge(ins.U, ins.V)
		plan = func(p Planner) Plan { return p.InsertEdge(ins.U, ins.V) }
	default:
		e, ok := graph.RandomExistingEdge(c.g, c.rng)
		if !ok {
			return
		}
		ng, err = c.g.DeleteEdge(e.U, e.V)
		subs, low = deepestQueries(c.tr, e.U, e.V)
		plan = func(p Planner) Plan { return p.DeleteEdge(e.U, e.V) }
	}
	if err != nil {
		tb.Fatal(err)
	}
	if len(subs) > 0 {
		query(NewRowPlanner(c.tr, ng, nil), ng, subs, low)
	}
	nt, _, err := runPlan(c.tr, ng, plan(NewRowPlanner(c.tr, ng, pram.NewMachine(1))))
	if err != nil {
		tb.Fatal(err)
	}
	c.g, c.tr = ng, nt
}

var deepestSink dstruct.WalkAnswer

// BenchmarkDeepestEdge prices one deepest-edge query of the row planner on
// BenchmarkUpdateExec's update stream (GnpConnected, average degree 3, seed
// 1, edge inserts and deletes at even odds). arm=walk is rehang's rule: the
// walk up from low, falling back to the row scan once it would read more
// than |T(sub)| path vertices and row entries. arm=scan is the row scan
// alone. Each op is one query, cycling over the stream's first deepest-edge
// queries; each holds its own tree, so they are capped to bound memory.
func BenchmarkDeepestEdge(b *testing.B) {
	type query struct {
		p        Planner
		sub, low int
	}
	for _, n := range []int{4096, 100000} {
		rng := rand.New(rand.NewSource(1))
		c := newChurn(graph.GnpConnected(n, 3/float64(n), rng), rng)
		var qs []query
		for len(qs) < 16 {
			c.step(b, false, func(p Planner, _ *graph.Persistent, subs []int, low int) {
				for _, sub := range subs {
					qs = append(qs, query{p, sub, low})
				}
			})
		}
		for _, arm := range []string{"walk", "scan"} {
			b.Run(fmt.Sprintf("n=%d/arm=%s", n, arm), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q := qs[i%len(qs)]
					if arm == "walk" {
						deepestSink = q.p.deepestEdge(q.sub, q.low, q.p.t.Size(q.sub))
					} else {
						deepestSink = q.p.scanRows(q.sub, q.low)
					}
				}
			})
		}
	}
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

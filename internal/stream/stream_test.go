package stream

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dstruct"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/tree"
	"repro/internal/verify"
)

// mirror applies the same updates to a plain graph so the streaming tree
// can be verified against ground truth.
func verifyAgainst(t *testing.T, m *Maintainer, g *graph.Persistent, ctx string) {
	t.Helper()
	if err := verify.DFSForest(g, m.Tree(), m.PseudoRoot()); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

func TestStreamingRandomSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(24)
		g := graph.GnpConnected(n, 3.0/float64(n), rng)
		m := New(g)
		mirror := g
		verifyAgainst(t, m, mirror, "initial")
		for step := 0; step < 25; step++ {
			switch rng.Intn(4) {
			case 0:
				if e, ok := graph.RandomEdgeNotIn(mirror, rng); ok {
					if ng, err := mirror.InsertEdge(e.U, e.V); err == nil {
						mirror = ng
						if err := m.InsertEdge(e.U, e.V); err != nil {
							t.Fatal(err)
						}
						verifyAgainst(t, m, mirror, "ins-edge")
					}
				}
			case 1:
				if e, ok := graph.RandomExistingEdge(mirror, rng); ok {
					if ng, err := mirror.DeleteEdge(e.U, e.V); err == nil {
						mirror = ng
						if err := m.DeleteEdge(e.U, e.V); err != nil {
							t.Fatal(err)
						}
						verifyAgainst(t, m, mirror, "del-edge")
					}
				}
			case 2:
				var nbrs []int
				for v := 0; v < mirror.NumVertexSlots(); v++ {
					if mirror.IsVertex(v) && rng.Float64() < 0.15 {
						nbrs = append(nbrs, v)
					}
				}
				if ng, _, err := mirror.InsertVertex(nbrs); err == nil {
					mirror = ng
					if _, err := m.InsertVertex(nbrs); err != nil {
						t.Fatal(err)
					}
					verifyAgainst(t, m, mirror, "ins-vertex")
				}
			case 3:
				if mirror.NumVertices() > 4 {
					v := rng.Intn(mirror.NumVertexSlots())
					if ng, err := mirror.DeleteVertex(v); err == nil {
						mirror = ng
						if err := m.DeleteVertex(v); err != nil {
							t.Fatal(err)
						}
						verifyAgainst(t, m, mirror, "del-vertex")
					}
				}
			}
		}
	}
}

func TestScheduledPassesPolylog(t *testing.T) {
	// ScheduledPasses per update must stay within c·log²n (Theorem 15).
	rng := rand.New(rand.NewSource(149))
	for _, n := range []int{64, 256} {
		g := graph.GnpConnected(n, 3.0/float64(n), rng)
		m := New(g)
		mirror := g
		worst := 0
		for step := 0; step < 30; step++ {
			if e, ok := graph.RandomEdgeNotIn(mirror, rng); ok {
				if ng, err := mirror.InsertEdge(e.U, e.V); err == nil {
					mirror = ng
					if err := m.InsertEdge(e.U, e.V); err != nil {
						t.Fatal(err)
					}
					if m.LastScheduledPasses() > worst {
						worst = m.LastScheduledPasses()
					}
				}
			}
		}
		lg := int(pram.Log2Ceil(n))
		if worst > 6*lg*lg {
			t.Fatalf("n=%d: %d scheduled passes > 6·log²n=%d", n, worst, 6*lg*lg)
		}
	}
}

func TestPassCounting(t *testing.T) {
	g := graph.Cycle(16)
	m := New(g)
	before := m.Stream().Passes()
	// Back edge insert: no queries, no passes.
	if err := m.InsertEdge(0, 8); err != nil {
		t.Fatal(err)
	}
	if m.LastPasses() != 0 {
		t.Fatalf("back edge insert used %d passes", m.LastPasses())
	}
	// Tree edge delete: must use at least one pass.
	if err := m.DeleteEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	if m.LastPasses() == 0 {
		t.Fatal("tree edge delete used no passes")
	}
	if m.Stream().Passes() == before {
		t.Fatal("stream pass counter did not advance")
	}
}

// TestBatchPassCoalescing checks the coalesced executor directly: a batch
// of mixed queries (EdgeToWalk and BySource, both directions) costs exactly
// one physical pass and returns bit-identical answers to issuing the same
// queries one at a time.
func TestBatchPassCoalescing(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	g := graph.GnpConnected(48, 4.0/48, rng)
	m := New(g)
	tr := m.Tree()

	deep := tr.Root
	for v := 0; v < g.NumVertexSlots(); v++ {
		if tr.Present(v) && tr.Level(v) > tr.Level(deep) {
			deep = v
		}
	}
	walk := tr.PathUp(deep, tr.AncestorAtLevel(deep, 1))
	onWalk := make(map[int]bool, len(walk))
	for _, v := range walk {
		onWalk[v] = true
	}
	var sources []int
	for v := 0; v < g.NumVertexSlots(); v++ {
		if g.IsVertex(v) && !onWalk[v] {
			sources = append(sources, v)
		}
	}
	qs := []dstruct.WalkQuery{
		{Sources: sources, Walk: walk, FromEnd: true},
		{Sources: sources, Walk: walk, FromEnd: false},
		{Sources: sources, Walk: walk, FromEnd: true, BySource: true},
		{Sources: nil, Walk: walk, FromEnd: true},     // trivial: no stream touch
		{Sources: sources, Walk: nil, FromEnd: false}, // trivial: no stream touch
	}

	p0 := m.Stream().Passes()
	got := m.o.EdgeToWalkBatch(qs, nil)
	if used := m.Stream().Passes() - p0; used != 1 {
		t.Fatalf("batch of %d queries used %d passes, want 1", len(qs), used)
	}

	p1 := m.Stream().Passes()
	want := make([]dstruct.WalkAnswer, len(qs))
	for i, q := range qs {
		if q.BySource {
			want[i].Hit, want[i].OK = m.o.EdgeToWalkBySource(q.Sources, q.Walk, q.FromEnd, nil)
		} else {
			want[i].Hit, want[i].OK = m.o.EdgeToWalk(q.Sources, q.Walk, q.FromEnd, nil)
		}
	}
	if used := m.Stream().Passes() - p1; used != 3 {
		t.Fatalf("singles used %d passes, want 3 (two trivial)", used)
	}
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("query %d: batch %+v vs single %+v", i, got[i], want[i])
		}
	}

	// An all-trivial batch must not touch the stream at all.
	p2 := m.Stream().Passes()
	m.o.EdgeToWalkBatch([]dstruct.WalkQuery{{Sources: nil, Walk: walk}, {Walk: nil}}, nil)
	if m.Stream().Passes() != p2 {
		t.Fatal("trivial batch consumed a pass")
	}
}

// TestBatchedUpdatePassParity asserts LastPasses == LastScheduledPasses on
// batched updates: with the single-pass batch executor, every scheduled
// round of a single-chain update is exactly one physical pass.
func TestBatchedUpdatePassParity(t *testing.T) {
	// Hub deletion: three arm subtrees query one shared path in a single
	// coalesced batch. Physical cost is the incident-edge discovery pass
	// plus that one batch pass (the eager executor used to pay one pass per
	// arm).
	g := graph.MustFromEdges(8, []graph.Edge{
		{U: 0, V: 1},
		{U: 1, V: 2}, {U: 2, V: 3},
		{U: 1, V: 4}, {U: 4, V: 5},
		{U: 1, V: 6}, {U: 6, V: 7},
	})
	m := New(g)
	if err := m.DeleteVertex(1); err != nil {
		t.Fatal(err)
	}
	mirror, err := g.DeleteVertex(1)
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainst(t, m, mirror, "hub delete")
	if m.LastPasses() != 2 {
		t.Fatalf("hub delete used %d passes, want 2 (discovery + one child batch)", m.LastPasses())
	}
	if int(m.LastPasses()) != m.LastScheduledPasses() {
		t.Fatalf("hub delete: passes %d != scheduled %d", m.LastPasses(), m.LastScheduledPasses())
	}

	// Single-chain reroots: tree-edge deletes (and the reinserts undoing
	// them) on a cycle keep the engine's component tree a chain, so the
	// physical pass count must equal the synchronous schedule exactly.
	cg := graph.Cycle(64)
	cm := New(cg)
	cmirror := cg
	for _, e := range [][2]int{{5, 6}, {20, 21}, {40, 41}, {62, 63}} {
		for _, op := range []string{"del", "ins"} {
			var err, merr error
			if op == "del" {
				err = cm.DeleteEdge(e[0], e[1])
				cmirror, merr = cmirror.DeleteEdge(e[0], e[1])
			} else {
				err = cm.InsertEdge(e[0], e[1])
				cmirror, merr = cmirror.InsertEdge(e[0], e[1])
			}
			if err = errors.Join(err, merr); err != nil {
				t.Fatal(err)
			}
			verifyAgainst(t, cm, cmirror, op)
			if op == "del" && cm.LastPasses() == 0 {
				t.Fatalf("%s %v: tree-edge delete used no passes", op, e)
			}
			if int(cm.LastPasses()) != cm.LastScheduledPasses() {
				t.Fatalf("%s %v: passes %d != scheduled %d",
					op, e, cm.LastPasses(), cm.LastScheduledPasses())
			}
		}
	}
}

// TestHeavyScenarioPassAccounting drives dense graphs whose deletions
// enter heavy subtrees — the workload where scenario 2's probes now ride
// speculatively in scenario 1's batch — and asserts the pass accounting
// survives the coalescing: the tree stays a valid DFS tree, physical
// passes never drop below the synchronous schedule (the charge accounting
// follows the merged batches one to one), and the scheduled count stays
// within the Theorem 15 polylog bound.
func TestHeavyScenarioPassAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	var heavyFired int
	for trial := 0; trial < 6; trial++ {
		n := 24 + rng.Intn(40)
		g := graph.GnpConnected(n, 0.25, rng)
		m := New(g)
		mirror := g
		lg := 1
		for p := 1; p < n; p <<= 1 {
			lg++
		}
		for step := 0; step < 30; step++ {
			var err error
			if e, ok := graph.RandomExistingEdge(mirror, rng); ok && step%3 != 0 {
				ng, gerr := mirror.DeleteEdge(e.U, e.V)
				if gerr != nil {
					continue
				}
				mirror, err = ng, m.DeleteEdge(e.U, e.V)
			} else if e, ok := graph.RandomEdgeNotIn(mirror, rng); ok {
				ng, gerr := mirror.InsertEdge(e.U, e.V)
				if gerr != nil {
					continue
				}
				mirror, err = ng, m.InsertEdge(e.U, e.V)
			} else {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			verifyAgainst(t, m, mirror, "heavy accounting")
			st := m.LastStats()
			heavyFired += st.HeavyL + st.HeavyP + st.HeavyR + st.HeavySpecial
			if int(m.LastPasses()) < m.LastScheduledPasses() {
				t.Fatalf("physical passes %d below schedule %d after merged heavy probes",
					m.LastPasses(), m.LastScheduledPasses())
			}
			if m.LastScheduledPasses() > 6*lg*lg {
				t.Fatalf("scheduled passes %d exceed polylog bound %d", m.LastScheduledPasses(), 6*lg*lg)
			}
		}
	}
	if heavyFired == 0 {
		t.Fatal("heavy scenarios never fired; workload does not cover the speculative batch")
	}
}

// TestPassesNeverBelowScheduled: the physical executor is sequential, so on
// any update it can only meet the synchronous schedule (single chain) or
// exceed it (independent chains it must serialize) — never beat it.
func TestPassesNeverBelowScheduled(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	for trial := 0; trial < 8; trial++ {
		n := 16 + rng.Intn(48)
		g := graph.GnpConnected(n, 3.0/float64(n), rng)
		m := New(g)
		mirror := g
		for step := 0; step < 25; step++ {
			if e, ok := graph.RandomExistingEdge(mirror, rng); ok && step%2 == 0 {
				if ng, err := mirror.DeleteEdge(e.U, e.V); err == nil {
					mirror = ng
					if err := m.DeleteEdge(e.U, e.V); err != nil {
						t.Fatal(err)
					}
				}
			} else if e, ok := graph.RandomEdgeNotIn(mirror, rng); ok {
				if ng, err := mirror.InsertEdge(e.U, e.V); err == nil {
					mirror = ng
					if err := m.InsertEdge(e.U, e.V); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				continue
			}
			if int(m.LastPasses()) < m.LastScheduledPasses() {
				t.Fatalf("physical passes %d below schedule %d",
					m.LastPasses(), m.LastScheduledPasses())
			}
		}
	}
}

func TestResidentMemoryLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	n := 256
	g := graph.GnpConnected(n, 8.0/float64(n), rng) // m ≈ 4n
	m := New(g)
	mirror := g
	for step := 0; step < 20; step++ {
		if e, ok := graph.RandomEdgeNotIn(mirror, rng); ok {
			if ng, err := mirror.InsertEdge(e.U, e.V); err == nil {
				mirror = ng
				if err := m.InsertEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	words := m.ResidentWords()
	if words > 16*(n+64+1) {
		t.Fatalf("resident memory %d words exceeds O(n) budget for n=%d", words, n)
	}
}

func TestStreamMutation(t *testing.T) {
	s := NewStream([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if s.Len() != 2 {
		t.Fatal("bad initial length")
	}
	s.insert(graph.Edge{U: 2, V: 0})
	if !s.remove(graph.Edge{U: 1, V: 0}) {
		t.Fatal("canonical removal failed")
	}
	if s.remove(graph.Edge{U: 5, V: 6}) {
		t.Fatal("removed nonexistent edge")
	}
	count := 0
	s.Pass(func(e graph.Edge) { count++ })
	if count != 2 || s.Passes() != 1 {
		t.Fatalf("count=%d passes=%d", count, s.Passes())
	}
}

func TestStreamErrorPaths(t *testing.T) {
	m := New(graph.Path(4))
	if err := m.InsertEdge(0, 0); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := m.DeleteEdge(0, 3); err == nil {
		t.Fatal("missing edge deletion accepted")
	}
	if err := m.DeleteVertex(77); err == nil {
		t.Fatal("missing vertex deletion accepted")
	}
	if _, err := m.InsertVertex([]int{99}); err == nil {
		t.Fatal("bad neighbor accepted")
	}
	// State must remain valid after the rejected updates.
	if err := verify.DFSForest(graph.Path(4), m.Tree(), m.PseudoRoot()); err != nil {
		t.Fatal(err)
	}
	_ = tree.None
}

// TestInsertVertexHeadroomExhausted fills the 64 vertex-ID slots below the
// pseudo root, then checks that the rejected 65th insert leaves the
// maintainer untouched: Snapshot still reconstructs the graph and the tree
// still verifies against it.
func TestInsertVertexHeadroomExhausted(t *testing.T) {
	m := New(graph.Path(4))
	mirror := graph.Path(4)
	for i := 0; i < 64; i++ {
		if _, err := m.InsertVertex(nil); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		var err error
		if mirror, _, err = mirror.InsertVertex(nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.InsertVertex(nil); err == nil {
		t.Fatal("insert past the headroom accepted")
	}
	g := m.Snapshot()
	if g.NumVertexSlots() != mirror.NumVertexSlots() || g.NumEdges() != mirror.NumEdges() {
		t.Fatalf("snapshot has %d slots / %d edges, want %d / %d",
			g.NumVertexSlots(), g.NumEdges(), mirror.NumVertexSlots(), mirror.NumEdges())
	}
	verifyAgainst(t, m, mirror, "after rejected insert")
}

// TestDuplicateInputMatchesCore runs one update sequence, with a repeated
// edge insert and a vertex insert naming one neighbour twice, through the
// core maintainer and the streaming one: every step must fail or succeed
// alike, and the rejected steps must leave no trace in the stream.
func TestDuplicateInputMatchesCore(t *testing.T) {
	g := graph.Path(4)
	dd := core.NewFullyDynamic(g)
	m := New(g)
	steps := []core.Update{
		{Kind: core.InsertEdge, U: 0, V: 2},
		{Kind: core.InsertEdge, U: 0, V: 2},
		{Kind: core.InsertEdge, U: 2, V: 0},
		{Kind: core.DeleteEdge, U: 0, V: 2},
		{Kind: core.DeleteEdge, U: 0, V: 2},
		{Kind: core.InsertEdge, U: 0, V: 1},
		{Kind: core.InsertVertex, Neighbors: []int{2, 2}},
		{Kind: core.InsertVertex, Neighbors: []int{3, 0, 3}},
		{Kind: core.InsertVertex, Neighbors: []int{2, 0}},
	}
	for i, u := range steps {
		_, coreErr := dd.Apply(u)
		var err error
		switch u.Kind {
		case core.InsertEdge:
			err = m.InsertEdge(u.U, u.V)
		case core.DeleteEdge:
			err = m.DeleteEdge(u.U, u.V)
		case core.InsertVertex:
			_, err = m.InsertVertex(u.Neighbors)
		}
		if (err == nil) != (coreErr == nil) {
			t.Fatalf("step %d %v: stream error %v, core error %v", i, u, err, coreErr)
		}
		want := dd.Graph()
		got := m.Snapshot()
		if got.NumVertexSlots() != want.NumVertexSlots() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("step %d %v: stream graph %d slots / %d edges, core %d / %d",
				i, u, got.NumVertexSlots(), got.NumEdges(), want.NumVertexSlots(), want.NumEdges())
		}
		for _, e := range got.Edges() {
			if !want.HasEdge(e.U, e.V) {
				t.Fatalf("step %d %v: stream holds edge %v core does not", i, u, e)
			}
		}
		verifyAgainst(t, m, got, "after step")
	}
}

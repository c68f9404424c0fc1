package reroot

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/dstruct"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/tree"
	"repro/internal/verify"
)

// TestHeavyScenariosFire verifies the l/p scenarios actually execute on
// dense random workloads (not merely that the code compiles): components of
// type C2 entered inside a heavy subtree are the paper's hard case, and
// dense graphs produce them reliably.
func TestHeavyScenariosFire(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	var agg Stats
	for trial := 0; trial < 200; trial++ {
		n := 24 + rng.Intn(40)
		g := graph.GnpConnected(n, 0.25, rng)
		e := rerootAndVerify(t, g, 0, rng.Intn(n))
		agg.Add(e.Stats)
	}
	if agg.HeavyL == 0 {
		t.Fatalf("scenario l never fired across 200 dense reroots: %+v", agg)
	}
	if agg.HeavyL+agg.HeavyP+agg.HeavyR < 5 {
		t.Fatalf("heavy scenarios nearly never fire: %+v", agg)
	}
	if agg.Fallbacks > agg.TotalTraversal/20 {
		t.Fatalf("fallback rate too high: %+v", agg)
	}
}

// TestHeavyOnDeepSkew drives the case the heavy machinery exists for:
// entering a deep, heavy subtree from the middle while a long path piece
// remains — built from lollipop-like graphs.
func TestHeavyOnDeepSkew(t *testing.T) {
	for _, n := range []int{32, 64, 128} {
		// Lollipop: path of n/2 vertices into a clique of n/2, plus chords
		// from the clique back to the path's start.
		edges := []graph.Edge{{U: 0, V: n - 1}}
		for v := 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: v - 1, V: v})
		}
		for u := n / 2; u < n; u++ {
			for v := u + 2; v < n; v++ {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		g := graph.MustFromEdges(n, edges)
		for rstar := 0; rstar < n; rstar += 7 {
			e := rerootAndVerify(t, g, 0, rstar)
			if e.Stats.GenericFall > 0 || e.Stats.Violations > 0 {
				t.Fatalf("n=%d rstar=%d: %+v", n, rstar, e.Stats)
			}
		}
	}
}

// Property (testing/quick): every reroot of every random graph yields a
// valid DFS tree with clean stats.
func TestQuickRerootValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(uint(seed)%48)
		var g *graph.Persistent
		switch seed % 4 {
		case 0:
			g = graph.GnpConnected(n, 3.0/float64(n), rng)
		case 1:
			g = graph.GnpConnected(n, 0.3, rng)
		case 2:
			g = graph.Broom(n+2, n/2+1)
		default:
			g = graph.Caterpillar(n/2+1, 2)
		}
		tr := baseline.StaticDFSFrom(g, 0)
		d := dstruct.Build(g, tr, nil)
		e := New(tr, d, pram.NewMachine(tr.Live()))
		rstar := int(uint(seed*31) % uint(g.NumVertexSlots()))
		if err := e.Reroot(0, rstar, tree.None); err != nil {
			return false
		}
		got, err := e.Result(rstar, presentOf(tr))
		if err != nil {
			return false
		}
		if err := verify.DFSTree(g, got, tree.None); err != nil {
			return false
		}
		return e.Stats.GenericFall == 0 && e.Stats.Violations == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRerootBroomRounds checks the adversarial broom stays within the round
// budget at larger sizes.
func TestRerootBroomRounds(t *testing.T) {
	for _, n := range []int{256, 1024} {
		g := graph.Broom(n, n/2)
		worst := 0
		for rstar := 1; rstar < n; rstar += n / 8 {
			e := rerootAndVerify(t, g, 0, rstar)
			if e.Stats.Rounds > worst {
				worst = e.Stats.Rounds
			}
		}
		lg := int(pram.Log2Ceil(n))
		if worst > 4*lg*lg {
			t.Fatalf("broom n=%d: %d rounds > %d", n, worst, 4*lg*lg)
		}
	}
}

// TestPieceHelpers covers the Piece geometry helpers directly.
func TestPieceHelpers(t *testing.T) {
	parent := []int{tree.None, 0, 1, 2, 1, 4}
	tr := tree.MustBuild(0, parent, nil)
	sub := SubtreePiece(1)
	if sub.size(tr) != 5 || !sub.contains(tr, 5) || sub.contains(tr, 0) {
		t.Fatalf("subtree piece geometry wrong")
	}
	p := PathPiece(1, 3) // 1-2-3 chain
	if p.size(tr) != 3 {
		t.Fatalf("path piece size %d", p.size(tr))
	}
	if !p.contains(tr, 2) || p.contains(tr, 4) {
		t.Fatal("path piece membership wrong")
	}
	vs := p.vertices(tr, nil)
	if len(vs) != 3 || vs[0] != 3 || vs[2] != 1 {
		t.Fatalf("path vertices %v", vs)
	}
	if got := p.String(); got != "path[1..3]" {
		t.Fatalf("String() = %q", got)
	}
	if got := sub.String(); got != "T(1)" {
		t.Fatalf("String() = %q", got)
	}
}

// TestWalkBuilderGuards exercises the defensive walk construction.
func TestWalkBuilderGuards(t *testing.T) {
	g := graph.Path(6)
	tr := baseline.StaticDFSFrom(g, 0)
	d := dstruct.Build(g, tr, nil)
	e := New(tr, d, nil)

	w := e.newWalk()
	w.ascend(4, 1)
	if w.err != nil || len(w.verts) != 4 {
		t.Fatalf("ascend: %v %v", w.err, w.verts)
	}
	w.ascend(1, 0) // continues from current end without repeating 1
	if w.err != nil || len(w.verts) != 5 {
		t.Fatalf("continued ascend: %v %v", w.err, w.verts)
	}
	// Revisit must fail.
	w2 := e.newWalk()
	w2.ascend(3, 1)
	w2.descend(1, 3)
	if w2.err == nil {
		t.Fatal("revisit not detected")
	}
	// Non-ancestor pairs must fail.
	w3 := e.newWalk()
	w3.ascend(1, 4)
	if w3.err == nil {
		t.Fatal("ascend to non-ancestor accepted")
	}
	w4 := e.newWalk()
	w4.descend(4, 1)
	if w4.err == nil {
		t.Fatal("descend to non-descendant accepted")
	}
	// Visited vertices are rejected.
	e.visited[2] = true
	w5 := e.newWalk()
	w5.ascend(3, 1)
	if w5.err == nil {
		t.Fatal("walk through visited vertex accepted")
	}
}

// TestSplitSubtree checks the generic subtree splitter on hand geometries.
func TestSplitSubtree(t *testing.T) {
	//      0
	//      1
	//    2   3
	//   4 5  6
	parent := []int{tree.None, 0, 1, 1, 2, 2, 3}
	tr := tree.MustBuild(0, parent, nil)
	g := graph.Path(2) // engine needs a D; content irrelevant here
	d := dstruct.Build(g, baseline.StaticDFSFrom(g, 0), nil)
	_ = d
	e := &Engine{T: tr, visited: make([]bool, tr.N()), M: pram.NewMachine(1)}

	// Remove the path 1-2: remainder = T(4), T(5), T(3), path [0..0].
	ix := e.indexWalk([]int{1, 2})
	pieces := e.splitSubtree(0, ix, nil)
	var paths, subs int
	for _, p := range pieces {
		if p.IsPath {
			paths++
			if p.Top != 0 || p.Bot != 0 {
				t.Fatalf("upper path %v", p)
			}
		} else {
			subs++
		}
	}
	if paths != 1 || subs != 3 {
		t.Fatalf("split pieces %v", pieces)
	}
	// Removing the root only: children become subtrees, no path.
	ix2 := e.indexWalk([]int{0})
	pieces2 := e.splitSubtree(0, ix2, nil)
	if len(pieces2) != 1 || pieces2[0].IsPath || pieces2[0].Root != 1 {
		t.Fatalf("root-removal split %v", pieces2)
	}
}

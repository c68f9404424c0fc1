package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// TestApplyTraceStages pins the maintainer's side of update tracing: with a
// trace attached, Apply records the engine and D-maintenance stage spans
// and tags the outcome and delta sizes; with none attached, nothing is
// touched. It runs the Parallel executor, whose maintainer keeps a D.
func TestApplyTraceStages(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.GnpConnected(256, 3.0/256, rng)
	dd := New(g, Options{RebuildD: true, Executor: Parallel})

	// A back-edge insert: tree untouched, D rebuilt over the new graph.
	tr := dd.Tree()
	u, v := -1, -1
	for x := 0; x < g.NumVertexSlots() && u < 0; x++ {
		if !tr.Present(x) || tr.Level(x) < 3 {
			continue
		}
		a := tr.Parent[tr.Parent[tr.Parent[x]]]
		if a != dd.PseudoRoot() && !dd.Graph().HasEdge(x, a) {
			u, v = x, a
		}
	}
	if u < 0 {
		t.Skip("no comparable non-edge found")
	}
	var trace obs.Trace
	dd.SetTrace(&trace)
	if err := dd.InsertEdge(u, v); err != nil {
		t.Fatal(err)
	}
	if !trace.SameTree {
		t.Fatalf("back-edge insert not tagged SameTree: %+v", trace)
	}
	if trace.Outcome != "rebuild" {
		t.Fatalf("back-edge insert outcome %q, want rebuild", trace.Outcome)
	}
	if trace.Engine != 0 {
		t.Fatalf("back-edge insert charged engine time %v", trace.Engine)
	}
	if trace.Moved != 0 || trace.Removed != 0 {
		t.Fatalf("back-edge insert moved/removed = %d/%d, want 0/0", trace.Moved, trace.Removed)
	}

	// Deleting a tree edge restructures: the engine span and the moved set
	// must be recorded.
	var del obs.Trace
	dd.SetTrace(&del)
	victim := -1
	for x := 0; x < g.NumVertexSlots(); x++ {
		if dd.Tree().Present(x) && dd.Tree().Parent[x] != dd.PseudoRoot() && dd.Tree().Parent[x] >= 0 {
			victim = x
			break
		}
	}
	if victim < 0 {
		t.Fatal("no tree edge to delete")
	}
	if err := dd.DeleteEdge(dd.Tree().Parent[victim], victim); err != nil {
		t.Fatal(err)
	}
	if del.SameTree {
		t.Fatalf("tree-edge delete tagged SameTree: %+v", del)
	}
	if del.Outcome != "rebuild" {
		t.Fatalf("tree-edge delete outcome %q, want rebuild", del.Outcome)
	}
	if del.Moved == 0 {
		t.Fatal("tree-edge delete recorded an empty moved set")
	}
	if del.Engine <= 0 {
		t.Fatalf("tree-edge delete engine span %v, want > 0", del.Engine)
	}
	if del.DMaint <= 0 {
		t.Fatalf("tree-edge delete dmaint span %v, want > 0", del.DMaint)
	}

	// Detached: later updates must not touch the old trace.
	dd.SetTrace(nil)
	saved := del
	if err := dd.InsertEdge(u, v); err == nil {
		_ = dd.DeleteEdge(u, v)
	}
	if del != saved {
		t.Fatal("detached trace was mutated by a later update")
	}
}

// TestApplyTraceRebuildOutcome pins the tag of D's rebuild on a
// churn-heavy update: on a cycle, deleting one tree edge reroots nearly the
// whole tree, and D is rebuilt over it ("rebuild").
func TestApplyTraceRebuildOutcome(t *testing.T) {
	dd := New(graph.Cycle(128), Options{RebuildD: true, Executor: Parallel})
	var trace obs.Trace
	dd.SetTrace(&trace)
	if err := dd.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if trace.Outcome != "rebuild" {
		t.Fatalf("churn-heavy outcome %q (moved %d), want rebuild", trace.Outcome, trace.Moved)
	}
	if err := dd.CheckSynced(); err != nil {
		t.Fatal(err)
	}
	if trace.DMaint <= 0 {
		t.Fatalf("rebuild dmaint span %v, want > 0", trace.DMaint)
	}
}

// TestApplyTraceWithoutD pins the trace of a SubtreeDFS maintainer, which
// keeps no D: every update is tagged "none", and the moved and removed
// sizes are still the engine's counts — the rerooted subtree, the
// re-hung children and the deleted vertex.
func TestApplyTraceWithoutD(t *testing.T) {
	dd := NewFullyDynamic(graph.Cycle(128))
	if dd.D() != nil {
		t.Fatal("a SubtreeDFS maintainer built a D")
	}
	var trace obs.Trace
	dd.SetTrace(&trace)
	if err := dd.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if trace.Outcome != "none" || trace.SameTree {
		t.Fatalf("tree-edge delete outcome %q SameTree %v, want none and false", trace.Outcome, trace.SameTree)
	}
	if trace.Moved != 127 || trace.Removed != 0 {
		t.Fatalf("tree-edge delete moved/removed = %d/%d, want 127/0", trace.Moved, trace.Removed)
	}

	// Vertex 5 sits inside the rerooted path: deleting it detaches it and
	// re-hangs its one child's subtree, which has no edge back up.
	dd.SetTrace(&trace)
	child := dd.Tree().Children(5)
	if len(child) != 1 {
		t.Fatalf("vertex 5 has children %v, want one", child)
	}
	want := dd.Tree().Size(child[0])
	if err := dd.DeleteVertex(5); err != nil {
		t.Fatal(err)
	}
	if trace.Outcome != "none" || trace.Moved != want || trace.Removed != 1 {
		t.Fatalf("vertex delete outcome %q moved/removed = %d/%d, want none %d/1", trace.Outcome, trace.Moved, trace.Removed, want)
	}
	if err := dd.CheckSynced(); err != nil {
		t.Fatal(err)
	}
}

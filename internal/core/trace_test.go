package core

import (
	"math/rand"
	"testing"

	"repro/internal/dstruct"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestApplyTraceStages pins the maintainer's side of update tracing: with a
// trace attached, Apply records the engine and D-maintenance stage spans
// and tags the outcome and delta sizes; with none attached, nothing is
// touched.
func TestApplyTraceStages(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.GnpConnected(256, 3.0/256, rng)
	dd := NewFullyDynamic(g)

	// A back-edge insert: tree untouched, D absorbs the patch incrementally.
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
	if trace.Outcome != "incremental" {
		t.Fatalf("back-edge insert outcome %q, want incremental", trace.Outcome)
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
	if del.Outcome != "incremental" && del.Outcome != "fallback" {
		t.Fatalf("tree-edge delete outcome %q", del.Outcome)
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

// TestApplyTraceRebuildOutcome pins the tag of a ground-up D rebuild: on
// a cycle, deleting one tree edge reroots nearly the whole tree, so D's
// incremental pass declines on churn and rebuilds ("fallback").
func TestApplyTraceRebuildOutcome(t *testing.T) {
	dd := New(graph.Cycle(128), Options{RebuildD: true})
	var trace obs.Trace
	dd.SetTrace(&trace)
	if err := dd.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if trace.Outcome != "fallback" {
		t.Fatalf("churn-heavy outcome %q (moved %d), want fallback", trace.Outcome, trace.Moved)
	}
	if got := dd.D().LastMaintenance(); got != dstruct.MaintenanceRebuild {
		t.Fatalf("D maintenance %v, want rebuild", got)
	}
	if trace.DMaint <= 0 {
		t.Fatalf("rebuild dmaint span %v, want > 0", trace.DMaint)
	}
}

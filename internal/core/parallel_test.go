package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/pram"
)

// TestParallelExecutionMatchesSerial drives two maintainers through the
// same update sequence — one on a forced 8-worker pool (so the sharded
// query evaluation and parallel D/LCA rebuilds run even on single-core
// hosts), one fully serial — and requires identical trees and identical
// recorded model costs after every update. Run under -race this doubles as
// the per-update hot path's interleaving check.
func TestParallelExecutionMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	const n = 1200
	g := graph.GnpConnected(n, 4.0/float64(n), rng)

	mp := pram.NewMachineWithWorkers(2*g.NumEdges()+n, 8)
	ms := pram.NewMachineWithWorkers(2*g.NumEdges()+n, 1)
	par := New(g, Options{RebuildD: true, Machine: mp, Executor: Parallel})
	ser := New(g, Options{RebuildD: true, Machine: ms, Executor: Parallel})

	sameTrees := func(ctx string) {
		t.Helper()
		tp, ts := par.Tree(), ser.Tree()
		if tp.N() != ts.N() {
			t.Fatalf("%s: slot counts differ (%d vs %d)", ctx, tp.N(), ts.N())
		}
		for v := 0; v < tp.N(); v++ {
			if tp.Parent[v] != ts.Parent[v] {
				t.Fatalf("%s: parent[%d] = %d (parallel) vs %d (serial)",
					ctx, v, tp.Parent[v], ts.Parent[v])
			}
		}
	}
	sameTrees("initial")

	mirror := par.Graph().Mutable()
	for step := 0; step < 60; step++ {
		var kind string
		switch rng.Intn(3) {
		case 0:
			if e, ok := graph.RandomEdgeNotIn(mirror, rng); ok {
				kind = "insert"
				if mirror.InsertEdge(e.U, e.V) != nil {
					continue
				}
				if err := par.InsertEdge(e.U, e.V); err != nil {
					t.Fatalf("step %d parallel insert: %v", step, err)
				}
				if err := ser.InsertEdge(e.U, e.V); err != nil {
					t.Fatalf("step %d serial insert: %v", step, err)
				}
			}
		case 1:
			if e, ok := graph.RandomExistingEdge(mirror, rng); ok {
				kind = "delete"
				if mirror.DeleteEdge(e.U, e.V) != nil {
					continue
				}
				if err := par.DeleteEdge(e.U, e.V); err != nil {
					t.Fatalf("step %d parallel delete: %v", step, err)
				}
				if err := ser.DeleteEdge(e.U, e.V); err != nil {
					t.Fatalf("step %d serial delete: %v", step, err)
				}
			}
		case 2:
			v := rng.Intn(mirror.NumVertexSlots())
			if mirror.IsVertex(v) && mirror.NumVertices() > n/2 {
				kind = "delete-vertex"
				if mirror.DeleteVertex(v) != nil {
					continue
				}
				if err := par.DeleteVertex(v); err != nil {
					t.Fatalf("step %d parallel delete-vertex: %v", step, err)
				}
				if err := ser.DeleteVertex(v); err != nil {
					t.Fatalf("step %d serial delete-vertex: %v", step, err)
				}
			}
		}
		if kind == "" {
			continue
		}
		check(t, par, kind)
		sameTrees(kind)
	}

	// Worker-pool width must not leak into the model accounting.
	if mp.Depth() != ms.Depth() || mp.Work() != ms.Work() {
		t.Fatalf("accounting diverged: parallel (depth %d, work %d) vs serial (depth %d, work %d)",
			mp.Depth(), mp.Work(), ms.Depth(), ms.Work())
	}
}

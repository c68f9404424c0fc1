package main

import (
	"fmt"
	"math/rand"
	"time"

	dfs "repro"
)

// runE5: data structure D build/query costs.
func runE5(seed int64) {
	fmt.Printf("%-7s %-9s | %-10s %-10s | %-10s %-8s\n",
		"n", "m", "build µs", "size(wd)", "batch µs", "log n")
	for _, n := range []int{256, 1024, 4096, 16384} {
		rng := rand.New(rand.NewSource(seed))
		g := dfs.GnpConnected(n, 4.0/float64(n), rng)
		t0 := time.Now()
		m := paperMaintainer(g) // includes Build of D
		buildNS := time.Since(t0).Nanoseconds()

		// One batch of ~n independent queries: a full update exercises it;
		// time a tree-edge delete (query-heaviest case).
		e := pickTreeEdge(m)
		t0 = time.Now()
		if err := m.DeleteEdge(e.U, e.V); err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		queryNS := time.Since(t0).Nanoseconds()
		fmt.Printf("%-7d %-9d | %-10.0f %-10d | %-10.0f %-8d\n",
			n, g.NumEdges(), float64(buildNS)/1e3, m.D().SizeWords(),
			float64(queryNS)/1e3, log2i(n))
	}
	fmt.Println("\nshape check: D's size is 2m words exactly; build and query-batch")
	fmt.Println("costs grow near-linearly in m and n·log n respectively (work), with")
	fmt.Println("model depth O(log n) recorded by the machine.")
}

func pickTreeEdge(m *dfs.Maintainer) dfs.Edge {
	t := m.Tree()
	g := m.Graph()
	for v := 0; v < g.NumVertexSlots(); v++ {
		if t.Present(v) && t.Parent[v] != m.PseudoRoot() && t.Parent[v] != dfs.None {
			return dfs.Edge{U: t.Parent[v], V: v}
		}
	}
	panic("no tree edge")
}

// runE6: work per update as density grows — the Section 7 discussion.
// The parallel algorithm spends O(m) work per update (it rebuilds D);
// the sequential rerooter's work stays near O(n) per update.
func runE6(seed int64) {
	const n = 1024
	fmt.Printf("%-8s %-9s | %-14s %-10s | %-14s %-10s\n",
		"avg deg", "m", "par work/upd", "m·log n", "seq work/upd", "n·log³n")
	for _, deg := range []int{2, 4, 8, 16, 32, 64} {
		rng := rand.New(rand.NewSource(seed))
		g := dfs.GnpConnected(n, float64(deg)/float64(n), rng)
		par := paperMaintainer(g)
		seq := dfs.NewMaintainerWith(g, dfs.Options{RebuildD: false, Executor: dfs.Sequential, Headroom: 128})

		var parW, seqW int64
		const updates = 15
		for i := 0; i < updates; i++ {
			// Force a restructuring update on both: delete a tree edge
			// (always reroots), then silently restore it.
			w0 := par.Machine().Work()
			e := pickTreeEdge(par)
			if err := par.DeleteEdge(e.U, e.V); err != nil {
				fmt.Printf("error: %v\n", err)
				return
			}
			parW += par.Machine().Work() - w0
			_ = par.InsertEdge(e.U, e.V)

			w0 = seq.Machine().Work()
			e = pickTreeEdgeSeq(seq)
			if err := seq.DeleteEdge(e.U, e.V); err != nil {
				fmt.Printf("error: %v\n", err)
				return
			}
			seqW += seq.Machine().Work() - w0
			_ = seq.InsertEdge(e.U, e.V)
		}
		lg := log2i(n)
		fmt.Printf("%-8d %-9d | %-14.0f %-10d | %-14.0f %-10d\n",
			deg, g.NumEdges(), float64(parW)/updates, g.NumEdges()*lg,
			float64(seqW)/updates, n*cube(lg))
	}
	fmt.Println("\nshape check: parallel work/update tracks m·log n (the D rebuild term)")
	fmt.Println("and so grows with density; sequential work stays within its n·log³n")
	fmt.Println("budget independent of m. The crossover sits where m ≈ n·log²n — the")
	fmt.Println("§7 work-efficiency gap that the paper leaves open.")
}

// pickTreeEdgeSeq picks a deep tree edge so the sequential rerooter has
// real work (not a leaf detachment).
func pickTreeEdgeSeq(m *dfs.Maintainer) dfs.Edge {
	t := m.Tree()
	g := m.Graph()
	best, bestSize := dfs.Edge{}, -1
	for v := 0; v < g.NumVertexSlots(); v++ {
		if t.Present(v) && t.Parent[v] != m.PseudoRoot() && t.Parent[v] != dfs.None {
			if t.Size(v) > bestSize {
				best, bestSize = dfs.Edge{U: t.Parent[v], V: v}, t.Size(v)
			}
		}
	}
	if bestSize < 0 {
		panic("no tree edge")
	}
	return best
}

// runE7: scheduler ablation — traversal mix and phase/stage behaviour on
// random vs adversarial topologies.
func runE7(seed int64) {
	fmt.Printf("%-12s %-7s | %-6s %-6s %-6s %-17s | %-6s %-6s %-7s %-5s\n",
		"workload", "n", "disint", "halve", "discon", "heavy l/p/r/spec", "phase", "stage", "rounds", "fall")
	type wl struct {
		name string
		g    *dfs.Graph
	}
	rng := rand.New(rand.NewSource(seed))
	n := 1024
	for _, w := range []wl{
		{"gnp-sparse", dfs.GnpConnected(n, 2.0/float64(n), rng)},
		{"gnp-dense", dfs.GnpConnected(n, 16.0/float64(n), rng)},
		{"broom", dfs.BroomGraph(n, n/2)},
		{"path", dfs.PathGraph(n)},
		{"star", dfs.StarGraph(n)},
		{"grid", dfs.GridGraph(32, 32)},
		{"caterpillar", dfs.CycleOfCliques(64, 16)},
	} {
		m := paperMaintainer(w.g)
		var agg dfs.Stats
		rngU := rand.New(rand.NewSource(seed + 3))
		for i := 0; i < 25; i++ {
			if mixedUpdate(m, rngU) {
				s := m.LastStats()
				agg.Add(s)
			}
		}
		fmt.Printf("%-12s %-7d | %-6d %-6d %-6d %4d/%4d/%2d/%2d    | %-6d %-6d %-7d %-5d\n",
			w.name, w.g.NumVertices(),
			agg.Disintegrate, agg.PathHalve, agg.Disconnect,
			agg.HeavyL, agg.HeavyP, agg.HeavyR, agg.HeavySpecial,
			agg.MaxPhase, agg.MaxStage, agg.Rounds, agg.Fallbacks+agg.GenericFall)
	}
	fmt.Println("\nshape check: rounds stay polylog on every topology; fallbacks stay 0;")
	fmt.Println("heavy-subtree scenarios appear mainly on skewed (broom/path) instances.")
}

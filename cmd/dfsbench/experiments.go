package main

import (
	"fmt"
	"math/rand"
	"time"

	dfs "repro"
)

// mixedUpdate applies one random feasible update to m, returning false if
// nothing applied. 60% edge ops, 40% vertex ops.
func mixedUpdate(m *dfs.Maintainer, rng *rand.Rand) bool {
	g := m.Graph()
	switch rng.Intn(10) {
	case 0, 1, 2:
		if e, ok := dfs.RandomNonEdge(g, rng); ok {
			return m.InsertEdge(e.U, e.V) == nil
		}
	case 3, 4, 5:
		if e, ok := dfs.RandomEdge(g, rng); ok {
			return m.DeleteEdge(e.U, e.V) == nil
		}
	case 6, 7:
		var nbrs []int
		for v := 0; v < g.NumVertexSlots() && len(nbrs) < 4; v++ {
			if g.IsVertex(v) && rng.Float64() < 0.01 {
				nbrs = append(nbrs, v)
			}
		}
		_, err := m.InsertVertex(nbrs)
		return err == nil
	default:
		if g.NumVertices() > 8 {
			v := rng.Intn(g.NumVertexSlots())
			if g.IsVertex(v) {
				return m.DeleteVertex(v) == nil
			}
		}
	}
	return false
}

// paperMaintainer builds the fully dynamic maintainer on the paper's
// Section 4 engine: every experiment reports that model's costs.
func paperMaintainer(g *dfs.Graph) *dfs.Maintainer {
	return dfs.NewMaintainerWith(g, dfs.Options{RebuildD: true, Executor: dfs.Parallel})
}

// runE1: per-update cost scaling of the parallel algorithm vs the
// sequential rerooter and static recomputation.
func runE1(seed int64) {
	fmt.Printf("%-7s %-8s | %-9s %-9s %-7s | %-9s %-9s | %-10s %-10s %-10s\n",
		"n", "m", "par.dep", "log³n", "rounds", "seq.steps", "n(ref)", "par µs", "seq µs", "static µs")
	for _, n := range []int{256, 1024, 4096, 16384} {
		rng := rand.New(rand.NewSource(seed))
		g := dfs.GnpConnected(n, 3.0/float64(n), rng)
		m0 := g.NumEdges()

		par := paperMaintainer(g)
		seq := dfs.NewMaintainerWith(g, dfs.Options{RebuildD: true, Executor: dfs.Sequential})

		const updates = 20
		var parDepth, parRounds, seqSteps int64
		var parNS, seqNS, staticNS int64
		rngP := rand.New(rand.NewSource(seed + 1))
		rngS := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < updates; i++ {
			d0 := par.Machine().Depth()
			t0 := time.Now()
			if !mixedUpdate(par, rngP) {
				continue
			}
			parNS += time.Since(t0).Nanoseconds()
			parDepth += par.Machine().Depth() - d0
			parRounds += int64(par.LastStats().Rounds)

			t0 = time.Now()
			mixedUpdate(seq, rngS)
			seqNS += time.Since(t0).Nanoseconds()
			seqSteps += int64(seq.LastStats().TotalTraversal)

			// Static recompute on the evolved graph.
			t0 = time.Now()
			_ = dfs.StaticDFS(par.Graph())
			staticNS += time.Since(t0).Nanoseconds()
		}
		lg := log2i(n)
		fmt.Printf("%-7d %-8d | %-9.0f %-9d %-7.1f | %-9.1f %-9d | %-10.0f %-10.0f %-10.0f\n",
			n, m0,
			float64(parDepth)/updates, cube(lg), float64(parRounds)/updates,
			float64(seqSteps)/updates, n,
			float64(parNS)/updates/1e3, float64(seqNS)/updates/1e3,
			float64(staticNS)/updates/1e3)
	}
	fmt.Println("shape check: par.dep tracks log³n (polylog), seq.steps can grow with n,")
	fmt.Println("static cost grows with m+n. Absolute µs are host-dependent.")
}

// runE2: fault tolerant batches.
func runE2(seed int64) {
	const n = 4096
	rng := rand.New(rand.NewSource(seed))
	g := dfs.GnpConnected(n, 3.0/float64(n), rng)
	ft := dfs.Preprocess(g, 8)
	fmt.Printf("preprocessed once: %d words for m=%d edges (O(m) check: ratio %.2f)\n\n",
		ft.SizeWords(), g.NumEdges(), float64(ft.SizeWords())/float64(g.NumEdges()))
	fmt.Printf("%-3s | %-10s %-12s %-12s %-10s\n",
		"k", "batch µs", "frag/query", "rounds", "k·log^3 n")
	lg := log2i(n)
	for _, k := range []int{1, 2, 3, 4} {
		var ns, frags, queries, rounds int64
		const batches = 10
		for b := 0; b < batches; b++ {
			batch := randomBatch(g, k, rng)
			t0 := time.Now()
			res, err := ft.Apply(batch)
			if err != nil {
				fmt.Printf("error: %v\n", err)
				return
			}
			ns += time.Since(t0).Nanoseconds()
			frags += res.Fragments
			queries += res.FragQueries
			rounds += int64(res.Stats.Rounds)
		}
		fq := 0.0
		if queries > 0 {
			fq = float64(frags) / float64(queries)
		}
		fmt.Printf("%-3d | %-10.0f %-12.2f %-12.1f %-10d\n",
			k, float64(ns)/batches/1e3, fq, float64(rounds)/batches, k*cube(lg))
	}
	fmt.Println("\nshape check: fragments per query grow with k (Theorem 9); batch cost")
	fmt.Println("grows with k but never triggers a rebuild of D.")
}

func randomBatch(g *dfs.Graph, k int, rng *rand.Rand) []dfs.Update {
	scratch := g
	var batch []dfs.Update
	for len(batch) < k {
		switch rng.Intn(3) {
		case 0:
			if e, ok := dfs.RandomNonEdge(scratch, rng); ok {
				if ng, err := scratch.InsertEdge(e.U, e.V); err == nil {
					scratch = ng
					batch = append(batch, dfs.Update{Kind: dfs.InsertEdge, U: e.U, V: e.V})
				}
			}
		case 1:
			if e, ok := dfs.RandomEdge(scratch, rng); ok {
				if ng, err := scratch.DeleteEdge(e.U, e.V); err == nil {
					scratch = ng
					batch = append(batch, dfs.Update{Kind: dfs.DeleteEdge, U: e.U, V: e.V})
				}
			}
		default:
			v := rng.Intn(scratch.NumVertexSlots())
			if scratch.IsVertex(v) && scratch.NumVertices() > 8 {
				if ng, err := scratch.DeleteVertex(v); err == nil {
					scratch = ng
					batch = append(batch, dfs.Update{Kind: dfs.DeleteVertex, U: v})
				}
			}
		}
	}
	return batch
}

// runE3: semi-streaming pass budget.
func runE3(seed int64) {
	fmt.Printf("%-7s | %-12s %-8s | %-14s %-10s\n",
		"n", "sched-pass", "log²n", "resident(wd)", "stream(m)")
	for _, n := range []int{256, 1024, 4096} {
		rng := rand.New(rand.NewSource(seed))
		g := dfs.GnpConnected(n, 4.0/float64(n), rng)
		s := dfs.NewStreaming(g)
		worst := 0
		for i := 0; i < 40; i++ {
			view := s.Snapshot()
			var err error
			if i%3 == 0 {
				if e, ok := dfs.RandomEdge(view, rng); ok {
					err = s.DeleteEdge(e.U, e.V)
				}
			} else if e, ok := dfs.RandomNonEdge(view, rng); ok {
				err = s.InsertEdge(e.U, e.V)
			}
			if err != nil {
				fmt.Printf("error: %v\n", err)
				return
			}
			if s.LastScheduledPasses() > worst {
				worst = s.LastScheduledPasses()
			}
		}
		lg := log2i(n)
		fmt.Printf("%-7d | %-12d %-8d | %-14d %-10d\n",
			n, worst, lg*lg, s.ResidentWords(), s.Stream().Len())
	}
	fmt.Println("\nshape check: worst passes/update stays under log²n while the stream")
	fmt.Println("(the graph) is ~4n edges and resident memory stays O(n).")
}

// runE4: distributed rounds/messages vs diameter at fixed n.
func runE4(seed int64) {
	fmt.Printf("%-16s %-6s %-5s | %-12s %-12s %-14s %-12s\n",
		"layout", "diam", "B", "rounds/upd", "D·log²n", "msgs/upd", "node words")
	n := 256
	for _, layout := range [][2]int{{4, 64}, {8, 32}, {16, 16}, {32, 8}, {64, 4}} {
		g := dfs.CycleOfCliques(layout[0], layout[1])
		d := g.Diameter()
		m := dfs.NewDistributed(g, 0)
		rng := rand.New(rand.NewSource(seed))
		var rounds, msgs, cnt int64
		for i := 0; i < 20; i++ {
			var u dfs.Update
			ok := false
			if i%2 == 0 {
				if e, has := dfs.RandomNonEdge(m.Core().Graph(), rng); has {
					u, ok = dfs.Update{Kind: dfs.InsertEdge, U: e.U, V: e.V}, true
				}
			} else if e, has := dfs.RandomEdge(m.Core().Graph(), rng); has {
				u, ok = dfs.Update{Kind: dfs.DeleteEdge, U: e.U, V: e.V}, true
			}
			if !ok {
				continue
			}
			if _, err := m.Apply(u); err != nil {
				fmt.Printf("error: %v\n", err)
				return
			}
			rounds += m.LastRounds()
			msgs += m.LastMessages()
			cnt++
		}
		lg := log2i(n)
		fmt.Printf("%2dx%-13d %-6d %-5d | %-12.0f %-12d %-14.0f %-12d\n",
			layout[0], layout[1], d, m.Network().B,
			float64(rounds)/float64(cnt), d*lg*lg,
			float64(msgs)/float64(cnt), m.MaxNodeWords())
	}
	fmt.Println("\nshape check: rounds/update grow linearly with the diameter at fixed n;")
	fmt.Println("message size B shrinks as n/D; per-node memory stays O(n).")
}

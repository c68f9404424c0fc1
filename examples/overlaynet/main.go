// Overlaynet: fully dynamic DFS over a churning peer-to-peer overlay.
//
// Peers join (vertex insertion with a handful of bootstrap links), leave
// (vertex deletion), and links churn (edge insertion/deletion). The DFS
// tree is the overlay's control structure — e.g. for biconnectivity and
// cut-vertex monitoring — and must be valid after every event. The example
// contrasts the paper's polylog update rounds against the cost of
// recomputing from scratch, which is what the overlay would otherwise do.
//
// Run: go run ./examples/overlaynet
package main

import (
	"fmt"
	"log"
	"math/rand"

	dfs "repro"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	const n0 = 300
	g := dfs.GnpConnected(n0, 4.0/float64(n0), rng)
	m := dfs.NewMaintainerWith(g, dfs.Options{RebuildD: true, Executor: dfs.Parallel})

	fmt.Printf("overlay bootstrap: %d peers, %d links\n",
		m.Graph().NumVertices(), m.Graph().NumEdges())

	var joins, leaves, linkUp, linkDown, worstRounds int
	for event := 0; event < 400; event++ {
		cur := m.Graph()
		switch r := rng.Float64(); {
		case r < 0.15: // peer joins, bootstraps to up to 3 random peers
			var boot []int
			seen := map[int]bool{}
			for len(boot) < 3 {
				v := rng.Intn(cur.NumVertexSlots())
				if cur.IsVertex(v) && !seen[v] {
					seen[v] = true
					boot = append(boot, v)
				}
			}
			if _, err := m.InsertVertex(boot); err != nil {
				log.Fatal(err)
			}
			joins++
		case r < 0.25 && cur.NumVertices() > 50: // peer leaves abruptly
			v := rng.Intn(cur.NumVertexSlots())
			for !cur.IsVertex(v) {
				v = rng.Intn(cur.NumVertexSlots())
			}
			if err := m.DeleteVertex(v); err != nil {
				log.Fatal(err)
			}
			leaves++
		case r < 0.65: // new link
			if e, ok := dfs.RandomNonEdge(cur, rng); ok {
				if err := m.InsertEdge(e.U, e.V); err != nil {
					log.Fatal(err)
				}
				linkUp++
			}
		default: // link drops
			if e, ok := dfs.RandomEdge(cur, rng); ok {
				if err := m.DeleteEdge(e.U, e.V); err != nil {
					log.Fatal(err)
				}
				linkDown++
			}
		}
		if err := dfs.Verify(m.Graph(), m.Tree(), m.PseudoRoot()); err != nil {
			log.Fatalf("event %d: %v", event, err)
		}
		if r := m.LastStats().Rounds; r > worstRounds {
			worstRounds = r
		}
	}

	n := m.Graph().NumVertices()
	lg := log2(n)
	fmt.Printf("events: %d joins, %d leaves, %d links up, %d links down\n",
		joins, leaves, linkUp, linkDown)
	fmt.Printf("final overlay: %d peers, %d links, %d components\n",
		n, m.Graph().NumEdges(), components(m))
	fmt.Printf("worst rerooting rounds per event: %d  (log²n = %d — Theorem 13's shape)\n",
		worstRounds, lg*lg)
	fmt.Printf("a from-scratch recompute per event would touch all %d edges every time\n",
		m.Graph().NumEdges())
	st := m.LastStats()
	fmt.Printf("last event traversal mix: disintegrate=%d pathHalve=%d disconnect=%d heavy(l/p/r)=%d/%d/%d\n",
		st.Disintegrate, st.PathHalve, st.Disconnect, st.HeavyL, st.HeavyP, st.HeavyR)

	// Cut-vertex monitoring, the overlay's reason to keep a DFS tree: the
	// snapshot analytics engine derives the biconnectivity structure (and
	// LCA / subtree indexes) from the maintained tree without a fresh
	// traversal, each index built once per snapshot.
	q := dfs.NewSnapshotQuery(m.Graph(), m.Tree(), m.PseudoRoot())
	artic := q.ArticulationPoints()
	fmt.Printf("health: %d cut peers, %d bridge links, %d biconnected components\n",
		len(artic), len(q.Bridges()), q.NumBiconnectedComponents())
	if len(artic) > 0 {
		v := artic[0]
		if agg, err := q.SubtreeAgg(v); err == nil {
			fmt.Printf("  e.g. cut peer %d anchors a subtree of %d peers (height %d)\n",
				v, agg.Size, agg.Height)
		}
	}
}

func components(m *dfs.Maintainer) int {
	_, k := m.Graph().ConnectedComponents()
	return k
}

func log2(n int) int {
	l := 0
	for p := 1; p < n; p <<= 1 {
		l++
	}
	return l
}

// Faulttolerance: the Theorem 14 workflow — preprocess a network once,
// then answer "what is a DFS tree if these k elements fail?" for many
// independent hypothetical failure sets, never rebuilding the structure.
//
// The scenario is a datacenter fabric: spine-leaf-ish topology; operators
// drill simultaneous link/switch failures and need the updated DFS tree
// (the substrate for articulation points, biconnected components, and
// re-routing) immediately per drill.
//
// Run: go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"math/rand"

	dfs "repro"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	// Fabric: 16 racks of 8 switches, ring-connected (cycle of cliques).
	g := dfs.CycleOfCliques(16, 8)
	fmt.Printf("fabric: %d switches, %d links, diameter %d\n",
		g.NumVertices(), g.NumEdges(), g.Diameter())

	const maxFaults = 4
	ft := dfs.Preprocess(g, maxFaults)
	fmt.Printf("preprocessed structure: %d words (links: %d) — built once\n\n",
		ft.SizeWords(), g.NumEdges())

	for drill := 1; drill <= 5; drill++ {
		k := 1 + rng.Intn(maxFaults)
		batch, desc := randomFailures(g, k, rng)
		res, err := ft.Apply(batch)
		if err != nil {
			log.Fatalf("drill %d: %v", drill, err)
		}
		if err := dfs.Verify(res.Graph, res.Tree, res.PseudoRoot); err != nil {
			log.Fatalf("drill %d produced invalid DFS tree: %v", drill, err)
		}
		_, comps := res.Graph.ConnectedComponents()
		fmt.Printf("drill %d: %-40s -> valid DFS tree, %d component(s), "+
			"%d rounds, %d query fragments over %d queries\n",
			drill, desc, comps, res.Stats.Rounds, res.Fragments, res.FragQueries)
	}
	fmt.Println("\nevery drill ran against the same preprocessed structure —")
	fmt.Println("no rebuild between batches (Theorem 14's whole point).")
}

// randomFailures picks k distinct failures (links or switches) that exist
// in the pristine fabric.
func randomFailures(g *dfs.Graph, k int, rng *rand.Rand) ([]dfs.Update, string) {
	var batch []dfs.Update
	desc := ""
	scratch := g
	for len(batch) < k {
		if rng.Intn(3) == 0 && scratch.NumVertices() > 8 {
			v := rng.Intn(scratch.NumVertexSlots())
			if ng, err := scratch.DeleteVertex(v); err == nil {
				scratch = ng
				batch = append(batch, dfs.Update{Kind: dfs.DeleteVertex, U: v})
				desc += fmt.Sprintf("switch %d ", v)
			}
		} else if e, ok := dfs.RandomEdge(scratch, rng); ok {
			if ng, err := scratch.DeleteEdge(e.U, e.V); err == nil {
				scratch = ng
				batch = append(batch, dfs.Update{Kind: dfs.DeleteEdge, U: e.U, V: e.V})
				desc += fmt.Sprintf("link %v ", e)
			}
		}
	}
	return batch, desc + "fail"
}

// Quickstart: maintain a DFS tree of a small dynamic graph through a mix of
// edge and vertex updates, verifying the DFS property after every step.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	dfs "repro"
)

func main() {
	// A 3x3 grid.
	g := dfs.GridGraph(3, 3)
	m := dfs.NewMaintainerWith(g, dfs.Options{RebuildD: true, Executor: dfs.Parallel})
	fmt.Println("initial DFS tree (parent per vertex):")
	printTree(m)

	steps := []struct {
		desc string
		do   func() error
	}{
		{"insert edge (0,8)", func() error { return m.InsertEdge(0, 8) }},
		{"delete edge (4,5)", func() error { return m.DeleteEdge(4, 5) }},
		{"insert vertex adjacent to {2,6}", func() error {
			id, err := m.InsertVertex([]int{2, 6})
			if err == nil {
				fmt.Printf("  new vertex id = %d\n", id)
			}
			return err
		}},
		{"delete vertex 4", func() error { return m.DeleteVertex(4) }},
	}
	for _, s := range steps {
		fmt.Printf("\n== %s ==\n", s.desc)
		if err := s.do(); err != nil {
			log.Fatalf("%s: %v", s.desc, err)
		}
		if err := dfs.Verify(m.Graph(), m.Tree(), m.PseudoRoot()); err != nil {
			log.Fatalf("verification failed: %v", err)
		}
		st := m.LastStats()
		fmt.Printf("  valid DFS tree; %d traversal rounds, %d query batches\n",
			st.Rounds, st.Batches)
		printTree(m)
	}
	fmt.Printf("\nPRAM accounting: depth=%d work=%d over %d updates\n",
		m.Machine().Depth(), m.Machine().Work(), m.Updates())

	// The maintained tree is more than a verification artifact: the
	// snapshot analytics engine answers derived queries from it.
	q := dfs.NewSnapshotQuery(m.Graph(), m.Tree(), m.PseudoRoot())
	if l, err := q.LCA(0, 8); err == nil {
		fmt.Printf("\nanalytics: LCA(0,8)=%d", l)
	}
	if p, err := q.TreePath(0, 8); err == nil {
		fmt.Printf(", tree path 0..8 = %v", p)
	}
	fmt.Printf(", articulation points = %v\n", q.ArticulationPoints())
}

func printTree(m *dfs.Maintainer) {
	t := m.Tree()
	for v := 0; v < m.Graph().NumVertexSlots(); v++ {
		if !t.Present(v) {
			continue
		}
		p := t.Parent[v]
		if p == m.PseudoRoot() {
			fmt.Printf("  %d <- (component root)\n", v)
		} else {
			fmt.Printf("  %d <- %d\n", v, p)
		}
	}
}

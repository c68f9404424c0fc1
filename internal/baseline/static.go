// Package baseline implements two of the comparison algorithms the paper
// measures against: the classical static O(m+n) DFS (Tarjan 1972) and the
// recompute-from-scratch dynamic strategy. The third, the sequential
// Õ(n)-per-update rerooting of Baswana, Chaudhury, Choudhary and Khan
// (SODA 2016) that the paper's parallel algorithm builds upon, is an
// executor of package reroot (reroot.Sequential, core.Options.Executor).
package baseline

import (
	"repro/internal/graph"
	"repro/internal/tree"
)

// StaticDFS computes a DFS tree of g using the paper's pseudo-root
// convention: a virtual root r (ID = NumVertexSlots(), i.e. one past the
// last real vertex) is connected to every live vertex, so disconnected
// graphs yield a single tree whose root children are component roots.
// Neighbors are visited in increasing vertex order, making the result
// deterministic. Runs in O(m+n).
func StaticDFS(g *graph.Persistent) *tree.Tree {
	return StaticDFSUnder(g, g.NumVertexSlots())
}

// StaticDFSUnder is StaticDFS with the pseudo root at ID root ≥
// NumVertexSlots(); the IDs between the last vertex slot and root are holes
// (the dynamic maintainers reserve them as vertex-insertion headroom).
func StaticDFSUnder(g *graph.Persistent, root int) *tree.Tree {
	n := g.NumVertexSlots()
	d := newDFS(g, root+1)
	present := make([]bool, root+1)
	present[root] = true
	for s := 0; s < n; s++ {
		if !g.IsVertex(s) {
			continue
		}
		present[s] = true
		if !d.visited[s] {
			d.visit(s, root)
		}
	}
	return tree.MustBuild(root, d.parent, present)
}

// StaticDFSFrom computes a DFS tree of the connected component of start,
// rooted at start, with no pseudo-root. Vertices outside the component are
// holes in the returned tree.
func StaticDFSFrom(g *graph.Persistent, start int) *tree.Tree {
	d := newDFS(g, g.NumVertexSlots())
	d.visit(start, tree.None)
	return tree.MustBuild(start, d.parent, d.visited)
}

// dfs is the state of one iterative DFS over g's rows: parent spans the
// tree's ID range, visited and cursor the graph's slots.
type dfs struct {
	g       *graph.Persistent
	parent  []int
	visited []bool
	cursor  []int
	stack   []int
}

func newDFS(g *graph.Persistent, ids int) *dfs {
	n := g.NumVertexSlots()
	d := &dfs{
		g:       g,
		parent:  make([]int, ids),
		visited: make([]bool, n),
		cursor:  make([]int, n),
		stack:   make([]int, 0, n),
	}
	for i := range d.parent {
		d.parent[i] = tree.None
	}
	return d
}

// visit hangs s under p and grows the DFS tree of s's component, taking
// unvisited neighbours in row order with explicit next-neighbour cursors.
func (d *dfs) visit(s, p int) {
	d.visited[s] = true
	d.parent[s] = p
	d.stack = append(d.stack[:0], s)
	for len(d.stack) > 0 {
		v := d.stack[len(d.stack)-1]
		row := d.g.Row(v)
		advanced := false
		for d.cursor[v] < len(row) {
			w := int(row[d.cursor[v]])
			d.cursor[v]++
			if !d.visited[w] {
				d.visited[w] = true
				d.parent[w] = v
				d.stack = append(d.stack, w)
				advanced = true
				break
			}
		}
		if !advanced {
			d.stack = d.stack[:len(d.stack)-1]
		}
	}
}

// Recompute is the trivial dynamic-DFS baseline: apply the update to the
// graph and recompute the DFS tree from scratch (O(m+n) per update).
type Recompute struct {
	G *graph.Persistent
	T *tree.Tree
}

// NewRecompute builds the baseline over g, which it retains (immutable).
func NewRecompute(g *graph.Persistent) *Recompute {
	return &Recompute{G: g, T: StaticDFS(g)}
}

// set installs the updated graph and recomputes the tree.
func (r *Recompute) set(g *graph.Persistent, err error) error {
	if err != nil {
		return err
	}
	r.G, r.T = g, StaticDFS(g)
	return nil
}

// InsertEdge applies the update and recomputes.
func (r *Recompute) InsertEdge(u, v int) error { return r.set(r.G.InsertEdge(u, v)) }

// DeleteEdge applies the update and recomputes.
func (r *Recompute) DeleteEdge(u, v int) error { return r.set(r.G.DeleteEdge(u, v)) }

// InsertVertex applies the update and recomputes, returning the new ID.
func (r *Recompute) InsertVertex(neighbors []int) (int, error) {
	g, v, err := r.G.InsertVertex(neighbors)
	if err := r.set(g, err); err != nil {
		return -1, err
	}
	return v, nil
}

// DeleteVertex applies the update and recomputes.
func (r *Recompute) DeleteVertex(v int) error { return r.set(r.G.DeleteVertex(v)) }

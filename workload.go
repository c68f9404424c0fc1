package dfs

import (
	"math/rand"

	"repro/internal/graph"
)

// Workload generators re-exported for examples and experiments. All are
// deterministic given the rng.

// Gnp returns an Erdős–Rényi G(n,p) random graph.
func Gnp(n int, p float64, rng *rand.Rand) *Graph { return graph.Gnp(n, p, rng) }

// GnpConnected returns a connected random graph: a random spanning tree
// plus G(n,p) edges.
func GnpConnected(n int, p float64, rng *rand.Rand) *Graph {
	return graph.GnpConnected(n, p, rng)
}

// PathGraph returns the path 0-1-…-(n-1).
func PathGraph(n int) *Graph { return graph.Path(n) }

// CycleGraph returns the n-cycle.
func CycleGraph(n int) *Graph { return graph.Cycle(n) }

// StarGraph returns a star with center 0.
func StarGraph(n int) *Graph { return graph.Star(n) }

// CompleteGraph returns K_n.
func CompleteGraph(n int) *Graph { return graph.Complete(n) }

// BroomGraph returns the adversarial broom instance (long handle, heavy
// fan, back edges to the handle's origin).
func BroomGraph(n, handle int) *Graph { return graph.Broom(n, handle) }

// GridGraph returns the rows×cols grid.
func GridGraph(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// CycleOfCliques returns k s-cliques on a ring — fixed n with diameter
// Θ(k), the distributed experiments' knob.
func CycleOfCliques(k, s int) *Graph { return graph.CycleOfCliques(k, s) }

// RandomNonEdge returns a uniformly random absent edge, if one exists.
func RandomNonEdge(g *Graph, rng *rand.Rand) (Edge, bool) {
	return graph.RandomEdgeNotIn(g, rng)
}

// RandomEdge returns a uniformly random present edge, if one exists.
func RandomEdge(g *Graph, rng *rand.Rand) (Edge, bool) {
	return graph.RandomExistingEdge(g, rng)
}

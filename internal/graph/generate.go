package graph

import (
	"math/rand"
)

// Gnp returns an Erdős–Rényi G(n,p) random graph drawn from rng.
// Sampling skips geometrically between edges, so the cost is O(n + m).
func Gnp(n int, p float64, rng *rand.Rand) *Persistent {
	return MustFromEdges(n, gnpEdges(nil, n, p, rng, nil))
}

// gnpEdges appends the pairs of a G(n,p) draw to es, leaving out those drop
// reports.
func gnpEdges(es []Edge, n int, p float64, rng *rand.Rand, drop func(u, v int) bool) []Edge {
	add := func(u, v int) {
		if drop == nil || !drop(u, v) {
			es = append(es, Edge{u, v})
		}
	}
	if p <= 0 || n < 2 {
		return es
	}
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				add(u, v)
			}
		}
		return es
	}
	// Iterate potential edge index with geometric skips.
	u, v := 1, -1
	lq := logq(p)
	for u < n {
		skip := geometric(rng, lq)
		v += 1 + skip
		for v >= u && u < n {
			v -= u
			u++
		}
		if u < n {
			add(u, v)
		}
	}
	return es
}

func logq(p float64) float64 {
	// log(1-p); p in (0,1)
	return log1p(-p)
}

func log1p(x float64) float64 {
	// thin wrapper to keep math import localized
	return mathLog1p(x)
}

// GnpConnected returns a connected G(n,p)-like graph: a uniform random
// spanning tree is added first, then G(n,p) edges on top (duplicates
// skipped). Like Gnp, the overlay samples with geometric skips, so the cost
// is O(n + m) and the 10⁵-vertex benchmark instances are cheap to generate.
func GnpConnected(n int, p float64, rng *rand.Rand) *Persistent {
	parent, es := randomTree(n, rng)
	// G(n,p) never draws a pair twice, so only a spanning-tree edge can
	// repeat, and each joins a vertex to a smaller parent.
	es = gnpEdges(es, n, p, rng, func(u, v int) bool { return parent[max(u, v)] == min(u, v) })
	return MustFromEdges(n, es)
}

// RandomTree returns a uniformly random labeled tree on n vertices
// (random Prüfer-like attachment: vertex i attaches to a uniform j < i,
// which is not uniform over labeled trees but is the standard random
// recursive tree used for workload generation).
func RandomTree(n int, rng *rand.Rand) *Persistent {
	_, es := randomTree(n, rng)
	return MustFromEdges(n, es)
}

// randomTree draws RandomTree's parent array (parent[0] is unused) and
// edge list.
func randomTree(n int, rng *rand.Rand) ([]int, []Edge) {
	parent := make([]int, n)
	es := make([]Edge, 0, max(n-1, 0))
	for v := 1; v < n; v++ {
		parent[v] = rng.Intn(v)
		es = append(es, Edge{v, parent[v]})
	}
	return parent, es
}

// Path returns the path 0-1-2-...-n-1.
func Path(n int) *Persistent { return MustFromEdges(n, pathEdges(n)) }

func pathEdges(n int) []Edge {
	var es []Edge
	for v := 1; v < n; v++ {
		es = append(es, Edge{v - 1, v})
	}
	return es
}

// Cycle returns the n-cycle.
func Cycle(n int) *Persistent {
	es := pathEdges(n)
	if n >= 3 {
		es = append(es, Edge{n - 1, 0})
	}
	return MustFromEdges(n, es)
}

// Star returns a star with center 0 and n-1 leaves.
func Star(n int) *Persistent {
	var es []Edge
	for v := 1; v < n; v++ {
		es = append(es, Edge{0, v})
	}
	return MustFromEdges(n, es)
}

// Complete returns K_n.
func Complete(n int) *Persistent {
	return MustFromEdges(n, gnpEdges(nil, n, 1, nil, nil))
}

// BinaryTree returns the complete binary tree on n vertices with root 0
// (children of i are 2i+1 and 2i+2).
func BinaryTree(n int) *Persistent {
	var es []Edge
	for v := 1; v < n; v++ {
		es = append(es, Edge{v, (v - 1) / 2})
	}
	return MustFromEdges(n, es)
}

// Broom returns the "broom" adversarial instance for rerooting: a path of
// length handle whose far end fans out into n-handle bristles, plus back
// edges from every bristle to vertex 0. Rerooting from a bristle forces long
// path structures. Requires n > handle >= 1.
func Broom(n, handle int) *Persistent {
	es := pathEdges(handle + 1)
	for v := handle + 1; v < n; v++ {
		es = append(es, Edge{handle, v}, Edge{0, v})
	}
	return MustFromEdges(n, es)
}

// Grid returns the rows×cols grid graph; vertex (r,c) has ID r*cols+c.
func Grid(rows, cols int) *Persistent {
	var es []Edge
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				es = append(es, Edge{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				es = append(es, Edge{id(r, c), id(r+1, c)})
			}
		}
	}
	return MustFromEdges(rows*cols, es)
}

// CycleOfCliques returns k cliques of size s arranged on a cycle, adjacent
// cliques joined by one edge. Diameter is Θ(k); useful for the distributed
// experiments that sweep diameter at fixed n.
func CycleOfCliques(k, s int) *Persistent {
	var es []Edge
	for c := 0; c < k; c++ {
		base := c * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				es = append(es, Edge{base + i, base + j})
			}
		}
		// Two cliques share one joining edge; three or more close a ring.
		if k > 1 && (c+1 < k || k > 2) {
			es = append(es, Edge{base, ((c + 1) % k) * s})
		}
	}
	return MustFromEdges(k*s, es)
}

// Caterpillar returns a spine path of length spine where spine vertex i has
// legs pendant leaves attached.
func Caterpillar(spine, legs int) *Persistent {
	es := pathEdges(spine)
	next := spine
	for s := 0; s < spine; s++ {
		for l := 0; l < legs; l++ {
			es = append(es, Edge{s, next})
			next++
		}
	}
	return MustFromEdges(spine+spine*legs, es)
}

// RandomEdgeNotIn returns a uniformly random non-edge (u,v) between live
// vertices, or ok=false if the live part of the graph is complete.
func RandomEdgeNotIn(g *Persistent, rng *rand.Rand) (Edge, bool) {
	n := g.NumVertexSlots()
	live := make([]int, 0, g.NumVertices())
	for v := 0; v < n; v++ {
		if g.IsVertex(v) {
			live = append(live, v)
		}
	}
	k := len(live)
	maxE := k * (k - 1) / 2
	if g.NumEdges() >= maxE || k < 2 {
		return Edge{}, false
	}
	for {
		u := live[rng.Intn(k)]
		v := live[rng.Intn(k)]
		if u != v && !g.HasEdge(u, v) {
			return Edge{u, v}.Canon(), true
		}
	}
}

// RandomExistingEdge returns a uniformly random edge of g, or ok=false if
// the graph has no edges. O(m) per call; intended for test workloads.
func RandomExistingEdge(g *Persistent, rng *rand.Rand) (Edge, bool) {
	if g.NumEdges() == 0 {
		return Edge{}, false
	}
	es := g.Edges()
	return es[rng.Intn(len(es))], true
}

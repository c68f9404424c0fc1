// Package distributed implements the paper's distributed fully dynamic DFS
// (Theorem 16, Section 6.2): a synchronous CONGEST(B) network with one
// processor per vertex, communication only along graph edges, messages of
// B = O(n/D) words, and O(n) words of state per node (the current DFS tree
// T, the partially built T*, and the node's own adjacency list).
//
// The discrete-event Network simulates the communication schedule — BFS
// tree construction after each update, then one pipelined convergecast +
// broadcast per batch of independent D-queries — counting rounds and
// messages exactly. Query answers themselves are computed by the shared
// rerooting engine (they are the same values the convergecast would
// combine); what the simulator measures is the communication cost of
// shipping them, which is what Theorem 16 bounds.
package distributed

import (
	"fmt"

	"repro/internal/graph"
)

// Network is a synchronous CONGEST(B) cost simulator.
type Network struct {
	B        int   // words per message
	Rounds   int64 // total synchronous rounds elapsed
	Messages int64 // total messages sent
	Words    int64 // total words shipped

	// Current BFS forest used for broadcasts.
	bfsParent []int
	bfsDepth  int
	treeEdges int
}

// NewNetwork creates a network with the given per-message word budget.
func NewNetwork(b int) *Network {
	if b < 1 {
		b = 1
	}
	return &Network{B: b}
}

// BuildBFS floods a BFS forest over the (updated) graph: one BFS tree per
// component, rooted at the component's smallest vertex ID (the paper's
// choice). Costs O(depth) rounds and O(m) messages — every edge carries one
// exploration message each way, as in the standard flooding construction.
func (nw *Network) BuildBFS(g *graph.Persistent) {
	n := g.NumVertexSlots()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	seen := make([]bool, n)
	depth := 0
	edges := 0
	var queue []int
	for s := 0; s < n; s++ {
		if !g.IsVertex(s) || seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue[:0], s)
		dist := map[int]int{s: 0}
		for h := 0; h < len(queue); h++ {
			v := queue[h]
			for _, w := range g.SortedNeighbors(v) {
				if !seen[w] {
					seen[w] = true
					parent[w] = v
					dist[w] = dist[v] + 1
					if dist[w] > depth {
						depth = dist[w]
					}
					edges++
					queue = append(queue, w)
				}
			}
		}
	}
	nw.bfsParent = parent
	nw.bfsDepth = depth
	nw.treeEdges = edges
	nw.Rounds += int64(depth + 1)
	nw.Messages += int64(2 * g.NumEdges()) // flood + ack along every edge
	nw.Words += int64(2 * g.NumEdges())
}

// Exchange simulates one pipelined convergecast + broadcast of `words`
// partial solutions over the current BFS forest: the words are cut into
// ⌈words/B⌉ chunks; chunk c crosses each tree level one round after chunk
// c-1 (pipelining). Each tree edge carries every chunk once up and once
// down. Returns the number of rounds this exchange took.
func (nw *Network) Exchange(words int) int {
	if words <= 0 || nw.bfsParent == nil {
		return 0
	}
	chunks := (words + nw.B - 1) / nw.B
	// Literal schedule simulation: chunk c departs the deepest level at
	// round c (0-based) and arrives at the root after bfsDepth hops; the
	// downward broadcast mirrors it.
	upRounds := 0
	for c := 0; c < chunks; c++ {
		arrival := c + nw.bfsDepth
		if arrival+1 > upRounds {
			upRounds = arrival + 1
		}
	}
	rounds := 2 * upRounds
	nw.Rounds += int64(rounds)
	nw.Messages += int64(2 * nw.treeEdges * chunks)
	nw.Words += 2 * int64(nw.treeEdges) * int64(words)
	return rounds
}

// BroadcastUpdate ships the update description (size words) down the BFS
// forest — the paper's update-propagation step.
func (nw *Network) BroadcastUpdate(words int) {
	if words <= 0 || nw.bfsParent == nil {
		return
	}
	chunks := (words + nw.B - 1) / nw.B
	nw.Rounds += int64(nw.bfsDepth + chunks)
	nw.Messages += int64(nw.treeEdges * chunks)
	nw.Words += int64(nw.treeEdges) * int64(words)
}

// Depth returns the current BFS forest depth.
func (nw *Network) Depth() int { return nw.bfsDepth }

func (nw *Network) String() string {
	return fmt.Sprintf("CONGEST(B=%d): rounds=%d messages=%d words=%d",
		nw.B, nw.Rounds, nw.Messages, nw.Words)
}

package distributed

import (
	"repro/internal/bicon"
	"repro/internal/core"
	"repro/internal/graph"
)

// Maintainer runs the fully dynamic DFS algorithm over the CONGEST(B)
// simulator: the answers come from the shared engine (each node could
// compute its partial solutions locally from its adjacency list; the
// convergecast combines them), while the network accounts every round and
// message of the communication schedule.
type Maintainer struct {
	dd *core.DynamicDFS
	nw *Network

	lastRounds   int64
	lastMessages int64
	lastArtic    int
}

// New builds the maintainer. b is the message size in words; pass 0 to use
// the paper's CONGEST(n/D) choice computed from the initial graph.
func New(g *graph.Persistent, b int) *Maintainer {
	if b <= 0 {
		d := g.Diameter()
		if d < 1 {
			d = 1
		}
		b = (g.NumVertices() + d - 1) / d
		if b < 1 {
			b = 1
		}
	}
	m := &Maintainer{
		dd: core.New(g, core.Options{RebuildD: true, Executor: core.Parallel}),
		nw: NewNetwork(b),
	}
	m.nw.BuildBFS(m.dd.Graph())
	return m
}

// Network exposes the cost simulator.
func (m *Maintainer) Network() *Network { return m.nw }

// Core exposes the underlying maintainer (tree, graph, pseudo root).
func (m *Maintainer) Core() *core.DynamicDFS { return m.dd }

// LastRounds returns the rounds consumed by the most recent update.
func (m *Maintainer) LastRounds() int64 { return m.lastRounds }

// LastMessages returns the messages of the most recent update.
func (m *Maintainer) LastMessages() int64 { return m.lastMessages }

// LastArticulationPoints returns how many articulation points the
// Section 6.2.2 bookkeeping found after the most recent deletion.
func (m *Maintainer) LastArticulationPoints() int { return m.lastArtic }

// MaxNodeWords audits the per-node memory: T and T* (n words each) plus
// the node's adjacency list — the O(n) restriction of Section 6.2.
func (m *Maintainer) MaxNodeWords() int {
	n := m.dd.Tree().N()
	maxDeg := 0
	g := m.dd.Graph()
	for v := 0; v < g.NumVertexSlots(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	return 2*n + maxDeg
}

// Apply processes one update: broadcast the update, rebuild the BFS forest
// on the updated graph, then run the rerooting with one pipelined exchange
// per sequential batch of independent queries.
func (m *Maintainer) Apply(u core.Update) (int, error) {
	r0, g0 := m.nw.Rounds, m.nw.Messages

	// Update size: an inserted vertex carries its whole edge set (the
	// Ω(n/D) message-size lower bound of Section 6.2.1 comes from here).
	updWords := 2 + len(u.Neighbors)
	m.nw.BroadcastUpdate(updWords)

	id, err := m.dd.Apply(u)
	if err != nil {
		return id, err
	}
	// Abrupt deletions: the BFS forest is rebuilt on the updated topology
	// before any query exchange uses it.
	m.nw.BuildBFS(m.dd.Graph())
	n := m.dd.Graph().NumVertices()
	for b := 0; b < m.dd.LastStats().Batches; b++ {
		m.nw.Exchange(n) // one batch = O(n) independent partial solutions
	}
	// Component-split/merge bookkeeping (Section 6.2.2): after a deletion
	// each node maintains the articulation points/bridges of the current
	// tree so the broadcast vertex of each resulting component can be
	// chosen locally; combining the per-node partial solutions is one more
	// O(n)-word exchange.
	if u.Kind == core.DeleteEdge || u.Kind == core.DeleteVertex {
		a := bicon.Analyze(m.dd.Graph(), m.dd.Tree(), m.dd.PseudoRoot(), m.dd.Machine())
		m.lastArtic = len(a.ArticulationPoints())
		m.nw.Exchange(n)
	}
	m.lastRounds = m.nw.Rounds - r0
	m.lastMessages = m.nw.Messages - g0
	return id, nil
}

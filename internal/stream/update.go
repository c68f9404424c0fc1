package stream

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/reroot"
	"repro/internal/tree"
)

// InsertEdge processes an edge insertion (reduction case ii).
func (m *Maintainer) InsertEdge(u, v int) error {
	if !m.isVertex(u) || !m.isVertex(v) || u == v {
		return fmt.Errorf("stream: bad edge (%d,%d)", u, v)
	}
	if m.s.has(graph.Edge{U: u, V: v}) {
		return fmt.Errorf("stream: duplicate edge (%d,%d)", u, v)
	}
	p0 := m.s.passes
	m.s.insert(graph.Edge{U: u, V: v})
	w := m.l.LCA(u, v)
	if w == u || w == v {
		return m.noop(p0)
	}
	vPrime := m.t.ChildToward(w, v)
	e := m.engine()
	if err := e.Reroot(vPrime, v, u); err != nil {
		return fmt.Errorf("stream: insert edge (%d,%d): %w", u, v, err)
	}
	return m.finish(e, p0, 0)
}

// DeleteEdge processes an edge deletion (reduction case i).
func (m *Maintainer) DeleteEdge(u, v int) error {
	p0 := m.s.passes
	if !m.s.remove(graph.Edge{U: u, V: v}) {
		return fmt.Errorf("stream: no edge (%d,%d)", u, v)
	}
	if m.t.Parent[v] != u && m.t.Parent[u] != v {
		return m.noop(p0)
	}
	if m.t.Parent[u] == v {
		u, v = v, u
	}
	e := m.engine()
	// One maintainer-level query round (one pass) locates the deepest edge
	// from T(v) to the path above before the engine runs.
	if inside, on, ok := m.lowestEdgeToPath(v, u, m.compRoot(u)); ok {
		if err := e.Reroot(v, inside, on); err != nil {
			return fmt.Errorf("stream: delete edge (%d,%d): %w", u, v, err)
		}
	} else {
		e.SetParent(v, m.pseudo)
	}
	return m.finish(e, p0, 1)
}

// DeleteVertex processes a vertex deletion (reduction case iii). Its
// incident edges are discovered with one pass.
func (m *Maintainer) DeleteVertex(u int) error {
	if !m.isVertex(u) {
		return fmt.Errorf("stream: no vertex %d", u)
	}
	p0 := m.s.passes
	var incident []graph.Edge
	m.s.Pass(func(e graph.Edge) {
		if e.U == u || e.V == u {
			incident = append(incident, e)
		}
	})
	for _, e := range incident {
		m.s.remove(e)
	}
	m.alive[u] = false
	pu := m.t.Parent[u]
	children := m.t.Children(u)
	e := m.engine()
	e.SetParent(u, tree.None)
	pre := 1 // the incident-edge discovery pass above
	if pu == m.pseudo {
		// u was a component root: no path above to reattach through.
		for _, vi := range children {
			e.SetParent(vi, m.pseudo)
		}
		return m.finish(e, p0, pre)
	}
	// The per-child deepest-edge queries share one path and are independent
	// of each other: one coalesced batch, one pass, mirroring the core
	// maintainer's DeleteVertex round.
	if len(children) > 0 {
		answers := m.lowestEdgesToPath(children, pu, m.compRoot(pu))
		pre++
		for i, vi := range children {
			if answers[i].OK {
				if err := e.Reroot(vi, answers[i].Hit.U, answers[i].Hit.Z); err != nil {
					return fmt.Errorf("stream: delete vertex %d: %w", u, err)
				}
			} else {
				e.SetParent(vi, m.pseudo)
			}
		}
	}
	return m.finish(e, p0, pre)
}

// InsertVertex processes a vertex insertion (reduction case iv) and returns
// the new vertex ID.
func (m *Maintainer) InsertVertex(neighbors []int) (int, error) {
	given := make(map[int]bool, len(neighbors))
	for _, w := range neighbors {
		if !m.isVertex(w) {
			return -1, fmt.Errorf("stream: neighbor %d not a vertex", w)
		}
		if given[w] {
			return -1, fmt.Errorf("stream: duplicate neighbor %d", w)
		}
		given[w] = true
	}
	u := m.slots
	if u >= m.pseudo {
		return -1, fmt.Errorf("stream: vertex headroom exhausted")
	}
	m.slots++
	m.alive = append(m.alive, true)
	p0 := m.s.passes
	for _, w := range neighbors {
		m.s.insert(graph.Edge{U: u, V: w})
	}
	e := m.engine()
	if len(neighbors) == 0 {
		e.SetParent(u, m.pseudo)
		return u, m.finish(e, p0, 0)
	}
	vj := neighbors[0]
	for _, v := range neighbors[1:] {
		if m.t.Level(v) < m.t.Level(vj) {
			vj = v
		}
	}
	e.SetParent(u, vj)
	seen := make(map[int]bool)
	for _, vi := range neighbors {
		if vi == vj {
			continue
		}
		a := m.l.LCA(vi, vj)
		if a == vi {
			continue
		}
		vPrime := m.t.ChildToward(a, vi)
		if seen[vPrime] {
			continue
		}
		seen[vPrime] = true
		if err := e.Reroot(vPrime, vi, u); err != nil {
			return -1, fmt.Errorf("stream: insert vertex: %w", err)
		}
	}
	return u, m.finish(e, p0, 0)
}

func (m *Maintainer) isVertex(v int) bool {
	return v >= 0 && v < m.slots && m.alive[v]
}

// noop finalizes an update that left the tree unchanged.
func (m *Maintainer) noop(p0 int64) error {
	m.lastPasses = m.s.passes - p0
	m.lastScheduled = 0
	m.lastStats = reroot.Stats{}
	return nil
}

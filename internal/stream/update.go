package stream

import (
	"fmt"

	"repro/internal/graph"
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
	return m.apply(m.planner().InsertEdge(u, v), p0, 0)
}

// DeleteEdge processes an edge deletion (reduction case i).
func (m *Maintainer) DeleteEdge(u, v int) error {
	p0 := m.s.passes
	if !m.s.remove(graph.Edge{U: u, V: v}) {
		return fmt.Errorf("stream: no edge (%d,%d)", u, v)
	}
	return m.apply(m.planner().DeleteEdge(u, v), p0, 0)
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
	return m.apply(m.planner().DeleteVertex(u), p0, 1)
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
	if err := m.apply(m.planner().InsertVertex(u, neighbors), p0, 0); err != nil {
		return -1, err
	}
	return u, nil
}

func (m *Maintainer) isVertex(v int) bool {
	return v >= 0 && v < m.slots && m.alive[v]
}

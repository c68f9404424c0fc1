// Package graph provides the undirected dynamic graph substrate used by the
// dynamic-DFS algorithms: Persistent, an immutable path-copying adjacency
// supporting the paper's extended update model (edge insert/delete, vertex
// insert with an arbitrary edge set, vertex delete). Each mutation returns a
// new version sharing all untouched rows with its predecessor, so a version
// can be published to concurrent readers in O(1) and retained forever (the
// serving layer's snapshot substrate).
//
// Vertices are dense integers 0..n-1. A deleted vertex leaves a hole: its ID
// stays allocated but IsVertex reports false and it has no incident edges.
// This keeps vertex IDs stable across an online update sequence, which the
// DFS structures rely on.
package graph

import "fmt"

// Edge is an undirected edge between two vertices.
type Edge struct {
	U, V int
}

// Canon returns the edge with endpoints ordered (min, max), the canonical
// form used for set membership.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Other returns the endpoint of e that is not x.
func (e Edge) Other(x int) int {
	if e.U == x {
		return e.V
	}
	return e.U
}

func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is the name the repository benchmark compiles against.
//
// Deprecated: use Persistent. Remove together with the benchmark's other
// shims (pram.NewMachineWithWorkers, ServiceConfig.Workers).
type Graph = Persistent

// PersistentOf returns p.
//
// Deprecated: a Persistent is already immutable and needs no copy. Remove
// together with the benchmark's other shims.
func PersistentOf(p *Persistent) *Persistent { return p }

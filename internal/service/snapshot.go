package service

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/reroot"
	"repro/internal/snapquery"
	"repro/internal/tree"
	"repro/internal/verify"
)

// Snapshot is one graph's state frozen at an update boundary. All exported
// fields are immutable: the Tree is the maintainer's persistent per-update
// tree, the Graph the maintainer's persistent adjacency version — both
// shared with the maintainer zero-copy, so publication costs O(1) rather
// than a deep clone. A Snapshot stays valid forever — readers may retain it
// across any number of later updates (they will simply be reading an old
// version; later updates path-copy away from it without ever writing into
// it).
//
// Graph exposes the read API of *graph.Persistent (IsVertex, HasEdge, Degree,
// Row, Edges, ...). A driver that keeps a private mirror starts from Graph
// and derives its own versions (g, err = g.InsertEdge(u, v)); the snapshot
// never sees them.
type Snapshot struct {
	ID         GraphID
	Version    uint64 // updates applied to the graph when published
	Graph      *graph.Persistent
	Tree       *tree.Tree
	PseudoRoot int

	// LastStats is the rerooting behaviour of the update that produced this
	// snapshot.
	LastStats reroot.Stats

	PublishedAt time.Time

	// query is the snapshot's analytics handle, set once by the first
	// Service.Query or QuerySnapshot on it (shard.queryHandle). The slot
	// makes a Snapshot unsafe to copy: share it by pointer.
	query atomic.Pointer[snapquery.Handle]
}

// IsAncestor reports whether a is an ancestor of v (not necessarily proper)
// in the snapshot's DFS tree.
func (s *Snapshot) IsAncestor(a, v int) (bool, error) {
	if !s.Tree.Present(a) || !s.Tree.Present(v) {
		return false, fmt.Errorf("service: IsAncestor(%d,%d): not vertices of %q@%d", a, v, s.ID, s.Version)
	}
	return s.Tree.IsAncestor(a, v), nil
}

// Path returns the tree path from down up to ancestor up, inclusive.
func (s *Snapshot) Path(down, up int) ([]int, error) {
	if !s.Tree.Present(down) || !s.Tree.Present(up) {
		return nil, fmt.Errorf("service: Path(%d,%d): not vertices of %q@%d", down, up, s.ID, s.Version)
	}
	if !s.Tree.IsAncestor(up, down) {
		return nil, fmt.Errorf("service: Path(%d,%d): %d is not an ancestor of %d", down, up, up, down)
	}
	return s.Tree.PathUp(down, up), nil
}

// Verify checks that the snapshot's tree is a DFS tree of its graph.
func (s *Snapshot) Verify() error {
	return verify.DFSForest(s.Graph, s.Tree, s.PseudoRoot)
}

// Future is the pending result of an asynchronous update submission. It is
// resolved exactly once by the owning shard's update loop.
type Future struct {
	done   chan struct{}
	vertex int
	snap   *Snapshot
	err    error
}

func newFuture() *Future {
	return &Future{done: make(chan struct{}), vertex: -1}
}

func (f *Future) resolve(vertex int, snap *Snapshot, err error) {
	f.vertex, f.snap, f.err = vertex, snap, err
	close(f.done)
}

// Done is closed when the update has been applied (or rejected).
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until resolution and returns the inserted vertex ID (-1 for
// non-InsertVertex updates), the first published snapshot that includes the
// update, and the update's error. On error the snapshot is the graph's
// state as of the rejection (nil if the graph does not exist).
func (f *Future) Wait() (int, *Snapshot, error) {
	<-f.done
	return f.vertex, f.snap, f.err
}

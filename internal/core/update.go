package core

import "fmt"

// Apply dispatches one update. For InsertVertex the new vertex ID is
// returned; other kinds return -1.
func (dd *DynamicDFS) Apply(u Update) (int, error) {
	switch u.Kind {
	case InsertEdge:
		return -1, dd.InsertEdge(u.U, u.V)
	case DeleteEdge:
		return -1, dd.DeleteEdge(u.U, u.V)
	case InsertVertex:
		return dd.InsertVertex(u.Neighbors)
	case DeleteVertex:
		return -1, dd.DeleteVertex(u.U)
	}
	return -1, fmt.Errorf("core: unknown update kind %d", u.Kind)
}

// InsertEdge inserts edge (u,v); see reroot.Planner.InsertEdge for the
// reduction (case ii).
func (dd *DynamicDFS) InsertEdge(u, v int) error {
	ng, err := dd.g.InsertEdge(u, v)
	if err != nil {
		return err
	}
	dd.g = ng
	if dd.d != nil {
		dd.d.PatchInsertEdge(u, v)
	}
	return dd.apply(InsertEdge, dd.planner().InsertEdge(u, v))
}

// DeleteEdge deletes edge (u,v); see reroot.Planner.DeleteEdge for the
// reduction (case i). Whether (u,v) is a tree edge is decided only after the
// graph has validated it.
func (dd *DynamicDFS) DeleteEdge(u, v int) error {
	ng, err := dd.g.DeleteEdge(u, v)
	if err != nil {
		return err
	}
	dd.g = ng
	if dd.d != nil {
		dd.d.PatchDeleteEdge(u, v)
	}
	return dd.apply(DeleteEdge, dd.planner().DeleteEdge(u, v))
}

// DeleteVertex deletes vertex u; see reroot.Planner.DeleteVertex for the
// reduction (case iii).
func (dd *DynamicDFS) DeleteVertex(u int) error {
	if !dd.g.IsVertex(u) {
		return fmt.Errorf("core: delete of non-vertex %d", u)
	}
	ng, err := dd.g.DeleteVertex(u)
	if err != nil {
		return err
	}
	if dd.d != nil {
		dd.d.PatchDeleteVertex(u, dd.g.SortedNeighbors(u)) // u's edges, read before dropping the old graph
	}
	dd.g = ng
	dd.present[u] = false
	return dd.apply(DeleteVertex, dd.planner().DeleteVertex(u))
}

// InsertVertex inserts a vertex adjacent to neighbors and returns its ID;
// see reroot.Planner.InsertVertex for the reduction (case iv).
func (dd *DynamicDFS) InsertVertex(neighbors []int) (int, error) {
	if dd.g.NumVertexSlots()+1 >= dd.pseudo {
		// The next ID would collide with the pseudo root. In fully dynamic
		// mode D, if any, follows every new tree anyway, so relocate the
		// pseudo root (see relocatePseudo); in fault tolerant mode D is
		// pinned to the original numbering, so this is an error.
		if !dd.rebuildD {
			return -1, fmt.Errorf("core: vertex headroom exhausted (pseudo %d); preprocess with larger Options.Headroom", dd.pseudo)
		}
		dd.relocatePseudo()
	}
	ng, u, err := dd.g.InsertVertex(neighbors)
	if err != nil {
		return -1, err
	}
	dd.g = ng
	dd.present[u] = true
	if dd.d != nil {
		dd.d.PatchInsertVertex(u, neighbors)
	}
	if err := dd.apply(InsertVertex, dd.planner().InsertVertex(u, neighbors)); err != nil {
		return -1, err
	}
	return u, nil
}

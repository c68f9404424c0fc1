package reroot

import (
	"fmt"
	"sort"

	"repro/internal/dstruct"
)

// walkBuilder assembles a traversal walk: an alternating sequence of tree
// paths of T and single back-edge hops, with every vertex distinct and
// unvisited. Builders fail softly (err set) so heavy-subtree scenarios can
// be abandoned for the fallback when a geometric precondition does not hold.
type walkBuilder struct {
	e     *Engine
	verts []int
	seen  map[int]bool
	err   error
}

func (e *Engine) newWalk() *walkBuilder {
	return &walkBuilder{e: e, seen: make(map[int]bool)}
}

func (w *walkBuilder) push(v int) {
	if w.err != nil {
		return
	}
	if w.seen[v] {
		w.err = fmt.Errorf("walk revisits %d", v)
		return
	}
	if w.e.visited[v] {
		w.err = fmt.Errorf("walk enters visited vertex %d", v)
		return
	}
	w.seen[v] = true
	w.verts = append(w.verts, v)
}

// ascend appends the tree path from descendant `from` up to ancestor `to`,
// both inclusive. If the walk already ends at `from`, it is not repeated.
func (w *walkBuilder) ascend(from, to int) {
	if w.err != nil {
		return
	}
	if !w.e.T.IsAncestor(to, from) {
		w.err = fmt.Errorf("ascend(%d,%d): not ancestor-descendant", from, to)
		return
	}
	v := from
	if len(w.verts) > 0 && w.verts[len(w.verts)-1] == from {
		if from == to {
			return
		}
		v = w.e.T.Parent[from]
	}
	for {
		w.push(v)
		if v == to || w.err != nil {
			return
		}
		v = w.e.T.Parent[v]
	}
}

// descend appends the tree path from ancestor `from` down to descendant
// `to`, both inclusive, skipping `from` if already at the walk's end.
func (w *walkBuilder) descend(from, to int) {
	if w.err != nil {
		return
	}
	if !w.e.T.IsAncestor(from, to) {
		w.err = fmt.Errorf("descend(%d,%d): not ancestor-descendant", from, to)
		return
	}
	path := w.e.T.PathUp(to, from) // to..from; reverse order
	start := len(path) - 1
	if len(w.verts) > 0 && w.verts[len(w.verts)-1] == from {
		start--
	}
	for i := start; i >= 0; i-- {
		w.push(path[i])
		if w.err != nil {
			return
		}
	}
}

// hop appends the far endpoint of a back edge (the edge itself was
// validated by the D query that produced it).
func (w *walkBuilder) hop(v int) { w.push(v) }

// walkIndex answers subtree/walk intersection queries for one finished walk.
type walkIndex struct {
	e    *Engine
	set  map[int]bool
	pres []int // sorted pre-order numbers of walk vertices
}

func (e *Engine) indexWalk(walk []int) *walkIndex {
	ix := &walkIndex{e: e, set: make(map[int]bool, len(walk))}
	for _, v := range walk {
		ix.set[v] = true
		ix.pres = append(ix.pres, e.T.Pre(v))
	}
	sort.Ints(ix.pres)
	return ix
}

func (ix *walkIndex) onWalk(v int) bool { return ix.set[v] }

// subtreeHasWalk reports whether T(v) contains any walk vertex, via binary
// search over the walk's pre-order numbers against T(v)'s pre interval.
func (ix *walkIndex) subtreeHasWalk(v int) bool {
	lo := ix.e.T.Pre(v)
	hi := lo + ix.e.T.Size(v) // == out(v)
	i := sort.SearchInts(ix.pres, lo)
	return i < len(ix.pres) && ix.pres[i] < hi
}

// splitSubtree decomposes T(root) minus the walk's vertices into pieces:
// intact hanging subtrees, and for every untouched chain leading down to a
// walk region, one path piece. Works for arbitrary walks; the paper's
// traversals always yield the expected path/subtree shapes, and a branching
// geometry (which the paper's invariants exclude) is absorbed as extra path
// pieces and counted as a violation.
func (e *Engine) splitSubtree(root int, ix *walkIndex, out []Piece) []Piece {
	work := []int{root}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if !ix.subtreeHasWalk(v) {
			out = append(out, SubtreePiece(v))
			continue
		}
		if ix.onWalk(v) {
			work = append(work, e.T.Children(v)...)
			continue
		}
		// v untouched, walk strictly below: follow the chain while exactly
		// one child subtree contains walk vertices.
		top := v
		cur := v
		for {
			next := -1
			multi := false
			for _, ch := range e.T.Children(cur) {
				if ix.subtreeHasWalk(ch) {
					if next >= 0 {
						multi = true
					} else {
						next = ch
					}
				} else {
					out = append(out, SubtreePiece(ch))
				}
			}
			if multi {
				// Branching above two walk regions: not expressible as a
				// single path piece. Close the chain here and recurse into
				// the walk-bearing children independently.
				e.Stats.Violations++
				out = append(out, PathPiece(top, cur))
				for _, ch := range e.T.Children(cur) {
					if ix.subtreeHasWalk(ch) {
						work = append(work, ch)
					}
				}
				break
			}
			if ix.onWalk(next) {
				out = append(out, PathPiece(top, cur))
				work = append(work, next)
				break
			}
			cur = next
		}
	}
	return out
}

// execWalk commits a walk: marks its vertices visited and records T*
// parents (walk[0] hangs under the component's attach parent).
func (e *Engine) execWalk(c *Comp, walk []int) error {
	if len(walk) == 0 {
		return fmt.Errorf("reroot: empty walk")
	}
	if walk[0] != c.RC {
		return fmt.Errorf("reroot: walk starts at %d, not entry %d", walk[0], c.RC)
	}
	prev := c.AttachParent
	for _, v := range walk {
		if e.visited[v] {
			return fmt.Errorf("reroot: walk revisits %d", v)
		}
		e.visited[v] = true
		e.parent[v] = prev
		prev = v
	}
	return nil
}

// materialize returns the vertex lists of the given pieces, one flat slice.
func (e *Engine) materialize(pieces []Piece) []int {
	var out []int
	for _, p := range pieces {
		out = p.vertices(e.T, out)
	}
	return out
}

// processComp finishes a traversal: walk has been planned and validated,
// remaining holds the unvisited pieces of the component. It commits the
// walk, groups the remaining pieces into components (each path piece with
// the subtrees having an edge to it; lone subtrees alone), finds every new
// component's entry via its lowest edge on the walk, and returns the
// children with depth bookkeeping.
func (e *Engine) processComp(c *Comp, walk []int, remaining []Piece) ([]*Comp, error) {
	if err := e.execWalk(c, walk); err != nil {
		return nil, err
	}
	var paths, subs []Piece
	for _, p := range remaining {
		if p.size(e.T) <= 0 {
			continue
		}
		if p.IsPath {
			paths = append(paths, p)
		} else {
			subs = append(subs, p)
		}
	}
	// Union-find over pieces: path pieces first, then subtrees.
	all := append(append([]Piece(nil), paths...), subs...)
	parent := make([]int, len(all))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	pathVerts := make([][]int, len(paths))
	totalQueried := 0
	for i, p := range paths {
		pathVerts[i] = p.vertices(e.T, nil)
	}
	// Subtree→path and path→path connectivity: all pairs are independent
	// existence queries, issued as one batch (one coalesced round of the
	// model; one D batch call, preparing each walk once).
	var connQs []dstruct.WalkQuery
	var connUnions [][2]int
	for si, s := range subs {
		sv := s.vertices(e.T, nil)
		for pi := range paths {
			totalQueried += len(sv)
			connQs = append(connQs, dstruct.WalkQuery{Sources: sv, Walk: pathVerts[pi], FromEnd: true})
			connUnions = append(connUnions, [2]int{len(paths) + si, pi})
		}
	}
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			totalQueried += len(pathVerts[i])
			connQs = append(connQs, dstruct.WalkQuery{Sources: pathVerts[i], Walk: pathVerts[j], FromEnd: true})
			connUnions = append(connUnions, [2]int{i, j})
		}
	}
	for k, ans := range e.D.EdgeToWalkBatch(connQs, &e.QStats) {
		if ans.OK {
			union(connUnions[k][0], connUnions[k][1])
		}
	}
	if totalQueried > 0 {
		e.chargeBatch(c, totalQueried)
	}

	groups := make(map[int][]Piece)
	var order []int
	for i, p := range all {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], p)
	}
	// Root queries: one batch over all groups.
	var kids []*Comp
	rootQueried := 0
	rootQs := make([]dstruct.WalkQuery, 0, len(order))
	for _, r := range order {
		g := groups[r]
		nPaths := 0
		for _, p := range g {
			if p.IsPath {
				nPaths++
			}
		}
		if nPaths > 1 {
			e.Stats.Violations++
		}
		src := e.materialize(g)
		rootQueried += len(src)
		rootQs = append(rootQs, dstruct.WalkQuery{Sources: src, Walk: walk, FromEnd: true})
	}
	rootAns := e.D.EdgeToWalkBatch(rootQs, &e.QStats)
	// Charge before the children inherit c.Batches: the root-location batch
	// gates every child's traversal, so it sits on each child's chain.
	if rootQueried > 0 {
		e.chargeBatch(c, rootQueried)
	}
	for gi, r := range order {
		g := groups[r]
		hit, ok := rootAns[gi].Hit, rootAns[gi].OK
		if !ok {
			return nil, fmt.Errorf("reroot: component %v has no edge to walk (len %d)", g, len(walk))
		}
		kids = append(kids, &Comp{
			Pieces:       g,
			RC:           hit.U,
			AttachParent: hit.Z,
			Depth:        c.Depth + 1,
			Batches:      c.Batches,
		})
	}
	for _, k := range kids {
		if k.Depth > e.Stats.Rounds {
			e.Stats.Rounds = k.Depth
		}
		if k.Batches > e.Stats.Batches {
			e.Stats.Batches = k.Batches
		}
	}
	if len(kids) == 0 {
		if c.Depth+1 > e.Stats.Rounds {
			e.Stats.Rounds = c.Depth + 1
		}
		if c.Batches > e.Stats.Batches {
			e.Stats.Batches = c.Batches
		}
	}
	return kids, nil
}

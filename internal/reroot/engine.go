package reroot

import (
	"fmt"

	"repro/internal/dstruct"
	"repro/internal/graph"
	"repro/internal/lca"
	"repro/internal/pram"
	"repro/internal/tree"
)

// Stats records the behaviour of one or more Reroot calls.
type Stats struct {
	Rounds         int // critical-path traversal rounds (max over chains)
	Batches        int // critical-path sequential query batches
	TotalTraversal int // total traversals executed
	Disintegrate   int
	PathHalve      int
	Disconnect     int
	HeavyL         int
	HeavyP         int
	HeavyR         int
	HeavySpecial   int // special-case traversals executed
	Fallbacks      int // l-shaped fallbacks from failed heavy scenarios
	GenericFall    int // generic fallbacks (multi-path components)
	Sequential     int // sequential-mode root walks (baseline engine)
	Violations     int // C1/C2 invariant violations detected and absorbed
	MaxPhase       int
	MaxStage       int
}

func (s *Stats) Add(o Stats) {
	if o.Rounds > s.Rounds {
		s.Rounds = o.Rounds
	}
	if o.Batches > s.Batches {
		s.Batches = o.Batches
	}
	s.TotalTraversal += o.TotalTraversal
	s.Disintegrate += o.Disintegrate
	s.PathHalve += o.PathHalve
	s.Disconnect += o.Disconnect
	s.HeavyL += o.HeavyL
	s.HeavyP += o.HeavyP
	s.HeavyR += o.HeavyR
	s.HeavySpecial += o.HeavySpecial
	s.Fallbacks += o.Fallbacks
	s.GenericFall += o.GenericFall
	s.Sequential += o.Sequential
	s.Violations += o.Violations
	if o.MaxPhase > s.MaxPhase {
		s.MaxPhase = o.MaxPhase
	}
	if o.MaxStage > s.MaxStage {
		s.MaxStage = o.MaxStage
	}
}

// Oracle answers the engine's edge queries (the role of the paper's data
// structure D). dstruct.D is the PRAM implementation; the semi-streaming
// and distributed simulators provide pass-counting and message-counting
// implementations of the same queries. Every method takes the caller's
// per-call Stats accumulator (nil discards): implementations must not keep
// internal mutable query counters, so a shared oracle stays safe for
// concurrent readers.
type Oracle interface {
	// EdgeToWalk returns a graph edge from the source set to the walk,
	// extremal by walk position (fromEnd = the paper's "lowest edge").
	EdgeToWalk(sources, walk []int, fromEnd bool, st *dstruct.Stats) (dstruct.Hit, bool)
	// EdgeToWalkBySource returns the first source in order with an edge to
	// the walk.
	EdgeToWalkBySource(sources, walk []int, fromEnd bool, st *dstruct.Stats) (dstruct.Hit, bool)
	// HasEdgeToWalk reports whether any source has an edge to the walk.
	HasEdgeToWalk(sources, walk []int, st *dstruct.Stats) bool
	// EdgeToWalkBatch answers a batch of independent queries, equivalent to
	// issuing them one by one in order. The paper's rounds are built from
	// such batches; implementations may prepare the whole batch at once
	// (dstruct.D prepares each distinct walk once, the semi-streaming
	// oracle answers each query with its own pass).
	EdgeToWalkBatch(qs []dstruct.WalkQuery, st *dstruct.Stats) []dstruct.WalkAnswer
}

// Engine reroots subtrees of a fixed base tree T. One Engine serves one
// update: construct with New, call Reroot for each disjoint subtree the
// reduction algorithm produces, then Result.
type Engine struct {
	T *tree.Tree
	L *lca.Index
	D Oracle
	M *pram.Machine

	parent  []int
	visited []bool
	scratch *Scratch // owns the moved-vertex accumulator (reused by the maintainer)
	n0      int      // size of the subtree currently being rerooted

	// Executor selects how Reroot runs: the paper's Section 4 scheduler
	// (Parallel, what New and NewWithScratch select), Baswana et al.'s
	// sequential rerooting (Sequential, the Õ(n)-per-update baseline), or a
	// static DFS of the rerooted subtree (SubtreeDFS, which reads G). Set it
	// before the first Reroot call.
	Executor Executor
	// G is the graph after the update. Only SubtreeDFS reads it.
	G *graph.Persistent

	// TrackMoved opts in to moved-vertex accumulation (Moved): every Reroot
	// and re-hanging SetParent, including those a Plan.Run issues, then
	// records the old-tree vertex set of the subtree it relocates. Off by
	// default. Only the core maintainer's incremental D maintenance sets it;
	// owners that never consume the set (the streaming maintainer, which
	// runs the same plans, fault-tolerant mode, the full-rebuild baseline)
	// must not pay its O(|subtree|) walks. Set it before the first
	// Reroot/SetParent call.
	TrackMoved bool

	Stats Stats

	// QStats accumulates the search effort of every oracle query this
	// engine issued (the per-call accumulator threaded through Oracle).
	QStats dstruct.Stats
}

// Scratch holds the per-update buffers of an engine so a maintainer can
// reuse them across updates instead of reallocating (parent copy + visited
// mask + moved/removed-vertex accumulators + the subtree search's stack). A
// Scratch must not be shared by engines running concurrently.
type Scratch struct {
	parent  []int
	visited []bool
	moved   []int
	removed []int
	stack   []dfsFrame
}

// New creates an engine that writes rerooted parent assignments over a copy
// of t's parent array and reroots with the Parallel executor. d must answer
// queries for the current graph (base structure plus patches for the
// in-flight update).
func New(t *tree.Tree, l *lca.Index, d Oracle, m *pram.Machine) *Engine {
	return NewWithScratch(t, l, d, m, nil)
}

// NewWithScratch is New drawing the engine's per-update buffers from s
// (nil s allocates fresh buffers, equivalent to New).
func NewWithScratch(t *tree.Tree, l *lca.Index, d Oracle, m *pram.Machine, s *Scratch) *Engine {
	if m == nil {
		m = pram.NewMachine(t.Live())
	}
	if s == nil {
		s = &Scratch{}
	}
	n := t.N()
	s.parent = append(s.parent[:0], t.Parent...)
	s.moved = s.moved[:0]
	s.removed = s.removed[:0]
	if cap(s.visited) >= n {
		s.visited = s.visited[:n]
		clear(s.visited)
	} else {
		s.visited = make([]bool, n)
	}
	return &Engine{
		T:        t,
		L:        l,
		D:        d,
		M:        m,
		Executor: Parallel,
		parent:   s.parent,
		visited:  s.visited,
		scratch:  s,
	}
}

// Parent exposes the in-progress parent assignment (the T* under
// construction). Callers may pre-assign entries for vertices outside the
// rerooted subtrees (the reduction algorithm's unchanged region).
func (e *Engine) Parent() []int { return e.parent }

// SetParent records an externally decided T* edge (used by the reduction
// algorithm for, e.g., the inserted vertex). A re-hung subtree (parent
// actually changing) joins the moved set, as does a vertex the base tree has
// never numbered; detaching a vertex (p == tree.None, the deleted vertex)
// joins the removed set instead — its D entries leave through the deletion
// patches, but downstream index maintenance still needs to know the vertex
// left the tree.
func (e *Engine) SetParent(v, p int) {
	e.parent[v] = p
	if !e.TrackMoved {
		return
	}
	if p == tree.None {
		if v < e.T.N() && e.T.Present(v) {
			e.scratch.removed = append(e.scratch.removed, v)
		}
		return
	}
	if v < e.T.N() && e.T.Present(v) {
		if e.T.Parent[v] != p {
			e.scratch.moved = e.T.SubtreeVertices(v, e.scratch.moved)
		}
	} else {
		e.scratch.moved = append(e.scratch.moved, v)
	}
}

// Moved returns the vertices whose root path this engine's reroots and
// reassignments changed — the old-tree vertex set of every rerooted or
// re-hung subtree plus newly attached vertices. Only these can change
// relative position in the new tree's post-order (children are ordered by ID
// on both sides), which is exactly what dstruct.D.Update needs to reposition
// entries incrementally. Empty unless TrackMoved was set. The slice is owned
// by the engine's Scratch; callers must consume it before the next update
// reuses the buffers.
func (e *Engine) Moved() []int { return e.scratch.moved }

// Removed returns the vertices this engine detached from the tree (SetParent
// to tree.None — the deleted vertex of a DeleteVertex update). Like Moved, it
// is empty unless TrackMoved was set and is owned by the engine's Scratch;
// callers must consume it before the next update reuses the buffers.
func (e *Engine) Removed() []int { return e.scratch.removed }

// Reroot rebuilds the subtree T(r0) as a DFS tree rooted at rstar, hanging
// rstar under attachParent in T*. attachParent may be tree.None when the
// rerooted subtree is the whole tree.
func (e *Engine) Reroot(r0, rstar, attachParent int) error {
	if !e.T.IsAncestor(r0, rstar) {
		return fmt.Errorf("reroot: new root %d not in T(%d)", rstar, r0)
	}
	// Everything in the rerooted subtree may change relative post-order.
	if e.TrackMoved {
		e.scratch.moved = e.T.SubtreeVertices(r0, e.scratch.moved)
	}
	if e.Executor == SubtreeDFS {
		return e.traverse(r0, rstar, attachParent)
	}
	e.n0 = e.T.Size(r0)
	root := &Comp{
		Pieces:       []Piece{SubtreePiece(r0)},
		RC:           rstar,
		AttachParent: attachParent,
	}
	queue := []*Comp{root}
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		kids, err := e.step(c)
		if err != nil {
			return err
		}
		queue = append(queue, kids...)
	}
	return nil
}

// Result builds the final tree from the accumulated parent assignments.
// newRoot is the root of the updated DFS tree; present marks live vertices
// (nil = all of T's vertices). The engine's parent buffer is finalized in
// place (tree.Build copies it), so the engine is spent afterwards.
func (e *Engine) Result(newRoot int, present []bool) (*tree.Tree, error) {
	e.parent[newRoot] = tree.None
	return tree.Build(newRoot, e.parent, present)
}

// phaseOf derives the phase a component is processed in: the smallest i
// with largestSubtree > n0/2^i. Components with no subtree pieces are past
// all phases.
func (e *Engine) phaseOf(c *Comp) int {
	s := c.largestSubtree(e.T)
	if s == 0 {
		return int(pram.Log2Ceil(e.n0)) + 1
	}
	i := 1
	for e.n0>>uint(i) >= s { // while threshold >= s, subtree not yet heavy
		i++
	}
	return i
}

// threshold returns the heavy-subtree threshold for phase i.
func (e *Engine) threshold(i int) int { return e.n0 >> uint(i) }

// stageOf derives the stage: smallest j with pathLen > n0/2^j; components
// with no path piece sit at the final stage.
func (e *Engine) stageOf(c *Comp) int {
	l := c.pathLen(e.T)
	if l == 0 {
		return int(pram.Log2Ceil(e.n0)) + 1
	}
	j := 1
	for e.n0>>uint(j) >= l {
		j++
	}
	return j
}

// step processes one component with one traversal and returns its children.
func (e *Engine) step(c *Comp) ([]*Comp, error) {
	// Drop empty pieces defensively (traversals should not emit them).
	if len(c.Pieces) == 0 {
		return nil, nil
	}
	phase := e.phaseOf(c)
	stage := e.stageOf(c)
	if phase > e.Stats.MaxPhase {
		e.Stats.MaxPhase = phase
	}
	if stage > e.Stats.MaxStage {
		e.Stats.MaxStage = stage
	}
	e.Stats.TotalTraversal++

	rcPiece := c.pieceOf(e.T, c.RC)
	if rcPiece < 0 {
		return nil, fmt.Errorf("reroot: entry vertex %d not in component %v", c.RC, c.Pieces)
	}
	if e.Executor == Sequential {
		e.Stats.Sequential++
		return e.fallback(c, rcPiece)
	}
	if c.pathCount() > 1 {
		// Invariant already violated upstream; consume with the generic
		// fallback, which is valid for arbitrary piece sets.
		e.Stats.GenericFall++
		return e.fallback(c, rcPiece)
	}
	p := c.Pieces[rcPiece]
	switch {
	case p.IsPath:
		e.Stats.PathHalve++
		return e.pathHalve(c, rcPiece)
	case c.pathCount() == 0:
		// Type C1 (single subtree by invariant; extra subtree pieces
		// without a connecting path cannot occur for connected components,
		// but disintegrate handles only the rc piece and reattaches rest).
		e.Stats.Disintegrate++
		return e.disintegrate(c, rcPiece)
	default:
		thr := e.threshold(phase)
		heavy := e.T.Size(p.Root) > thr
		if !heavy {
			e.Stats.Disconnect++
			return e.disconnect(c, rcPiece)
		}
		if c.RC == p.Root {
			e.Stats.Disintegrate++
			return e.disintegrate(c, rcPiece)
		}
		vH := e.findVH(p.Root, thr)
		if e.T.IsAncestor(vH, c.RC) {
			e.Stats.Disconnect++
			return e.disconnect(c, rcPiece)
		}
		return e.heavy(c, rcPiece, vH)
	}
}

// findVH locates the smallest subtree of T(root) with size > thr: descend
// while a (necessarily unique) child exceeds the threshold.
func (e *Engine) findVH(root, thr int) int {
	v := root
	for {
		next := -1
		for _, ch := range e.T.Children(v) {
			if e.T.Size(ch) > thr {
				next = ch
				break
			}
		}
		if next < 0 {
			return v
		}
		v = next
	}
}

// chargeBatch accounts one batch of independent D/LCA queries over k total
// source vertices: O(log n) depth, O(k log n) work (Theorems 6, 8). In
// sequential mode the charge models Baswana et al.'s structure D₀ instead,
// which answers a component's O(1) queries in polylog time without
// enumerating sources (the price is a far more complex structure — the
// trade-off the paper's remark after Theorem 14 describes).
func (e *Engine) chargeBatch(c *Comp, k int) {
	lg := pram.Log2Ceil(e.T.Live())
	if lg == 0 {
		lg = 1
	}
	if e.Executor == Sequential {
		e.M.Charge(lg*lg*lg, lg*lg*lg)
	} else {
		e.M.Charge(0, int64(k)*lg)
	}
	c.Batches++
}

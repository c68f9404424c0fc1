// Package core implements the paper's fully dynamic DFS maintainer
// (Theorem 13): it owns the current graph G, its DFS tree T (under the
// pseudo-root convention of Section 2, so disconnected graphs are a single
// tree whose root children are component roots), and the data structure D,
// and processes an online sequence of edge/vertex insertions and deletions.
//
// Every update runs the reduction algorithm of Section 3 — updating the DFS
// tree reduces to independently rerooting disjoint subtrees. The reduction
// lives in reroot.Planner, shared with the semi-streaming maintainer, and
// the rerooting in reroot.Engine; this package adds input validation, the
// graph.Persistent mutation, D's patches and maintenance, pseudo-root
// relocation and the installation of each new tree.
//
// Options.Executor selects how each reroot runs. The default, SubtreeDFS,
// is a static DFS of the rerooted subtree's induced subgraph — valid
// because every edge leaving the subtree ends above its new parent — and is
// what the serving layer runs: O(|T(r)| + m(T(r))) per update with no D
// query. Parallel is the paper's Section 4 engine (Theorem 13's polylog
// depth on m processors, executed sequentially here); the experiments, the
// fault-tolerant and the distributed maintainers select it, because its
// costs are what they report. Sequential is the Baswana et al. baseline.
//
// In the default fully dynamic mode, D is maintained incrementally on the
// new tree after each update: the engine reports the moved-vertex set and
// dstruct.D.Update repositions exactly the entries naming moved vertices,
// falling back to the paper's m-processor ground-up rebuild only on
// high-churn updates. With
// rebuilding disabled the maintainer accumulates patches on the original D
// instead, which is the engine of the fault-tolerant algorithm
// (Theorem 14).
package core

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/dstruct"
	"repro/internal/graph"
	"repro/internal/lca"
	"repro/internal/obs"
	"repro/internal/pram"
	"repro/internal/reroot"
	"repro/internal/tree"
)

// UpdateKind enumerates the paper's extended update model.
type UpdateKind int

const (
	InsertEdge UpdateKind = iota
	DeleteEdge
	InsertVertex
	DeleteVertex
)

func (k UpdateKind) String() string {
	switch k {
	case InsertEdge:
		return "insert-edge"
	case DeleteEdge:
		return "delete-edge"
	case InsertVertex:
		return "insert-vertex"
	case DeleteVertex:
		return "delete-vertex"
	}
	return "unknown"
}

// Update is one graph update. For InsertVertex, Neighbors holds the new
// vertex's edge set; for DeleteVertex, U is the vertex.
type Update struct {
	Kind      UpdateKind
	U, V      int
	Neighbors []int
}

// Options configure a DynamicDFS.
type Options struct {
	// RebuildD controls whether D is refreshed after every update (fully
	// dynamic mode, default for NewFullyDynamic) or left pinned to the base
	// tree accumulating patches (the fault tolerant algorithm's use). In
	// refresh mode D is maintained incrementally from the engine's
	// moved-vertex set, falling back to a ground-up rebuild on high-churn
	// updates.
	RebuildD bool
	// Headroom reserves vertex-ID slots between the graph and the pseudo
	// root so vertex insertions do not displace it. Default 64.
	Headroom int
	// Machine receives the PRAM cost accounting; a fresh one is created if
	// nil.
	Machine *pram.Machine
	// Executor selects how each rerooting step of the Section 3 reduction
	// runs. The zero value, SubtreeDFS, is the fastest on one core and is
	// what the serving layer runs; Parallel selects the paper's Section 4
	// engine (the model the experiments, the fault-tolerant and the
	// distributed maintainers report on) and Sequential the Baswana et al.
	// baseline. All three produce valid DFS trees, in general different
	// ones.
	Executor Executor
}

// Executor selects the rerooting executor; see reroot.Executor.
type Executor = reroot.Executor

// The rerooting executors (Options.Executor).
const (
	// SubtreeDFS reroots each subtree with one static DFS of the subgraph
	// it induces: O(|T(r)| + m(T(r))) per step, no D query.
	SubtreeDFS = reroot.SubtreeDFS
	// Parallel runs the paper's Section 4 engine: polylog rounds of batched
	// D queries, charged to the PRAM model.
	Parallel = reroot.Parallel
	// Sequential runs the sequential rerooting of Baswana et al.
	Sequential = reroot.Sequential
)

// DynamicDFS maintains a DFS tree of a dynamic undirected graph.
type DynamicDFS struct {
	g      *graph.Persistent
	t      *tree.Tree
	l      *lca.Index
	d      *dstruct.D
	m      *pram.Machine
	pseudo int

	rebuildD  bool
	headroom  int
	exec      Executor
	present   []bool // presence mask reused by every tree build
	lastStats reroot.Stats
	updates   int

	qstats  dstruct.Stats // query search effort accumulated across updates
	scratch reroot.Scratch

	// trace, when non-nil, receives the in-flight update's stage timings
	// (engine, D maintenance) and outcome tags; engineDur/dmaintDur
	// accumulate the spans across an update's phases. All tracing is gated
	// on the nil check, so untraced callers pay nothing.
	trace     *obs.Trace
	engineDur time.Duration
	dmaintDur time.Duration
}

// SetTrace attaches (or, with nil, detaches) the per-update trace the next
// Apply fills in: the engine and D-maintenance stage durations, the
// maintenance outcome ("incremental", "fallback", "pinned"), the
// back-edge SameTree tag, and the moved/removed set sizes. The serving
// layer attaches a fresh trace around every update it applies; single-
// tenant drivers may do the same. The attached trace stays installed until
// replaced, but stage accumulators reset at each SetTrace call.
func (dd *DynamicDFS) SetTrace(t *obs.Trace) {
	dd.trace = t
	dd.engineDur, dd.dmaintDur = 0, 0
}

// New builds the maintainer over g, which it retains (immutable: updates
// derive new versions and never write into it): computes the initial DFS
// tree (static preprocessing) and the data structure D.
func New(g *graph.Persistent, opt Options) *DynamicDFS {
	if opt.Headroom <= 0 {
		opt.Headroom = 64
	}
	m := opt.Machine
	if m == nil {
		m = pram.NewMachine(2*g.NumEdges() + g.NumVertexSlots() + 1)
	}
	dd := &DynamicDFS{
		g:        g,
		m:        m,
		rebuildD: opt.RebuildD,
		headroom: opt.Headroom,
		exec:     opt.Executor,
	}
	dd.pseudo = dd.g.NumVertexSlots() + dd.headroom
	dd.t = baseline.StaticDFSUnder(dd.g, dd.pseudo)
	dd.d = dstruct.Build(dd.g, dd.t, dd.m)
	if dd.rebuildD {
		// Fully dynamic mode refreshes D (and its embedded LCA index) after
		// every update; the engine-facing index aliases D's so the same
		// tree is never indexed twice.
		dd.l = dd.d.LCA
	} else {
		dd.l = lca.Build(dd.t)
	}
	return dd
}

// NewFullyDynamic is New with fully dynamic defaults.
func NewFullyDynamic(g *graph.Persistent) *DynamicDFS {
	return New(g, Options{RebuildD: true})
}

// NewFromState assembles a maintainer over pre-built state without copying:
// the fault-tolerant algorithm uses this to run an update batch against a
// shared original D while the tree evolves. g is a persistent version the
// caller may keep sharing — the session never mutates it, it only advances
// its own pointer past it. t must be g's DFS tree rooted at pseudo, and d
// built on a tree whose queries remain valid for t (Theorem 9). Of opt only
// Machine and Executor apply: D stays pinned to its tree.
func NewFromState(g *graph.Persistent, t *tree.Tree, d *dstruct.D, pseudo int, opt Options) *DynamicDFS {
	m := opt.Machine
	if m == nil {
		m = pram.NewMachine(t.Live())
	}
	return &DynamicDFS{
		g:        g,
		t:        t,
		l:        lca.Build(t),
		d:        d,
		m:        m,
		pseudo:   pseudo,
		rebuildD: false,
		headroom: pseudo - g.NumVertexSlots(),
		exec:     opt.Executor,
	}
}

// NewDynamicRestored assembles a fully dynamic maintainer over restored
// state — a deserialized WAL checkpoint, or any (graph, DFS tree) pair the
// caller already holds: g's DFS tree t rooted at pseudo, with updates
// already counted against the pair. D (and the engine-facing LCA index it
// embeds) is built fresh from (g, t), so the result is exactly the
// maintainer that produced the pair, minus per-update scratch. g and t are
// retained, not copied: both are immutable under the maintainer's regime
// (updates path-copy away from g; t is replaced, never mutated).
func NewDynamicRestored(g *graph.Persistent, t *tree.Tree, pseudo, updates int, opt Options) *DynamicDFS {
	m := opt.Machine
	if m == nil {
		m = pram.NewMachine(2*g.NumEdges() + g.NumVertexSlots() + 1)
	}
	dd := &DynamicDFS{
		g:        g,
		t:        t,
		m:        m,
		pseudo:   pseudo,
		updates:  updates,
		rebuildD: true,
		headroom: pseudo - g.NumVertexSlots(),
		exec:     opt.Executor,
	}
	dd.d = dstruct.Build(dd.g, dd.t, dd.m)
	dd.l = dd.d.LCA
	return dd
}

// Graph returns the current version of the maintained graph (identical to
// Frozen; this is the read accessor, Frozen the publication API).
func (dd *DynamicDFS) Graph() *graph.Persistent { return dd.Frozen() }

// Frozen returns the current graph version for publication: because the
// maintainer mutates through the persistent structure, freezing is a
// pointer grab — O(1) regardless of n and m — and the result is immutable,
// so callers may read it concurrently with later updates and retain it
// (still verifiable against this update's tree) forever.
func (dd *DynamicDFS) Frozen() *graph.Persistent { return dd.g }

// Tree returns the current DFS tree, rooted at the pseudo root; each child
// subtree of the root is a DFS tree of one connected component.
func (dd *DynamicDFS) Tree() *tree.Tree { return dd.t }

// PseudoRoot returns the pseudo root's vertex ID.
func (dd *DynamicDFS) PseudoRoot() int { return dd.pseudo }

// D exposes the query structure (for the fault-tolerant wrapper).
func (dd *DynamicDFS) D() *dstruct.D { return dd.d }

// Machine returns the PRAM accounting machine.
func (dd *DynamicDFS) Machine() *pram.Machine { return dd.m }

// LastStats returns the rerooting statistics of the most recent update.
func (dd *DynamicDFS) LastStats() reroot.Stats { return dd.lastStats }

// LCA returns the LCA index of the current tree: in fully dynamic mode D's
// embedded index, otherwise one built for the engine. It always indexes
// Tree(), and like the tree it is immutable and replaced, never mutated, so
// a caller may publish it with the tree and query it after later updates.
func (dd *DynamicDFS) LCA() *lca.Index { return dd.l }

// QueryStats returns the D-query search effort accumulated over every
// update processed so far (each update's engine threads a per-call
// accumulator through the oracle; the maintainer rolls them up here).
func (dd *DynamicDFS) QueryStats() dstruct.Stats { return dd.qstats }

// Updates returns the number of updates processed.
func (dd *DynamicDFS) Updates() int { return dd.updates }

// presentMask refills the maintainer's presence mask for the tree (graph
// vertices + pseudo) and returns it. The mask is only borrowed: tree.Build
// copies it, so one buffer serves every update.
func (dd *DynamicDFS) presentMask() []bool {
	p := dd.present
	if cap(p) < dd.pseudo+1 {
		p = make([]bool, dd.pseudo+1)
	}
	p = p[:dd.pseudo+1]
	for v := range p {
		p[v] = dd.g.IsVertex(v)
	}
	p[dd.pseudo] = true
	dd.present = p
	return p
}

// apply runs an update's plan: an empty plan (a back-edge insert or delete)
// keeps the tree and lets D absorb the update's patch; any other plan runs
// on a fresh engine, whose result becomes the new tree. Every Reroot and
// the tree rebuild are timed into the update's engine span.
func (dd *DynamicDFS) apply(kind UpdateKind, p reroot.Plan) error {
	if len(p.Steps) == 0 {
		dd.lastStats = reroot.Stats{}
		dd.installTree(dd.t, nil, nil, true)
		return nil
	}
	e := dd.engine()
	var spent *time.Duration
	if dd.trace != nil {
		spent = &dd.engineDur
	}
	if err := p.Run(e, spent); err != nil {
		return fmt.Errorf("core: %v: %w", kind, err)
	}
	var t0 time.Time
	if spent != nil {
		t0 = time.Now()
	}
	nt, err := e.Result(dd.pseudo, dd.presentMask())
	if spent != nil {
		*spent += time.Since(t0)
	}
	if err != nil {
		return fmt.Errorf("core: rebuilding tree: %w", err)
	}
	dd.installTree(nt, e.Moved(), e.Removed(), false)
	dd.lastStats = e.Stats
	dd.qstats.Add(e.QStats)
	return nil
}

// installTree makes nt the current tree and refreshes the derived
// structures. moved is the engine's moved-vertex set (the only vertices
// whose relative post-order can differ from the previous tree), removed the
// vertices the update deleted from the tree; sameTree is set by the
// back-edge fast paths, where the tree object and its numbering are
// untouched and D only needs to absorb the update's patches (and keeps its
// LCA index).
func (dd *DynamicDFS) installTree(nt *tree.Tree, moved, removed []int, sameTree bool) {
	dd.t = nt
	dd.updates++
	var t0 time.Time
	if dd.trace != nil {
		t0 = time.Now()
	}
	outcome := "pinned"
	if dd.rebuildD {
		// Incremental maintenance: reposition only the entries naming moved
		// vertices and absorb the update's patches; D falls back to the
		// full rebuild by itself when the churn ratio makes the incremental
		// pass more expensive.
		if dd.d.Update(dd.g, dd.t, dstruct.UpdateDelta{Moved: moved, SameTree: sameTree}) {
			outcome = "incremental"
		} else {
			outcome = "fallback"
		}
		// dd.l aliases the freshly maintained index.
		dd.l = dd.d.LCA
	} else {
		// Fault-tolerant mode: D stays pinned to the base tree, so the
		// engine-facing index is a separate one built on the new tree.
		dd.l = lca.Build(dd.t)
	}
	if tr := dd.trace; tr != nil {
		dd.dmaintDur += time.Since(t0)
		tr.Engine, tr.DMaint = dd.engineDur, dd.dmaintDur
		tr.Outcome = outcome
		tr.SameTree = sameTree
		tr.Moved, tr.Removed = len(moved), len(removed)
	}
}

// planner reduces the in-flight update against the current tree, charging
// its deepest-edge batch to the maintainer's machine and query totals.
func (dd *DynamicDFS) planner() reroot.Planner {
	return reroot.NewPlanner(dd.t, dd.l, dd.d, dd.m, &dd.qstats)
}

// engine creates a rerooting engine for the current tree, drawing its
// per-update buffers from the maintainer's reusable scratch.
func (dd *DynamicDFS) engine() *reroot.Engine {
	e := reroot.NewWithScratch(dd.t, dd.l, dd.d, dd.m, &dd.scratch)
	e.Executor, e.G = dd.exec, dd.g
	// Only the incremental D path consumes the moved set; the pinned mode
	// must not pay the subtree walks that accumulate it.
	e.TrackMoved = dd.rebuildD
	return e
}

// relocatePseudo moves the pseudo root to a higher ID with doubled
// headroom, renaming it in the tree (all other vertex IDs are stable) and
// rebuilding the derived structures.
func (dd *DynamicDFS) relocatePseudo() {
	oldPseudo := dd.pseudo
	dd.headroom *= 2
	dd.pseudo = dd.g.NumVertexSlots() + dd.headroom
	parent := make([]int, dd.pseudo+1)
	for i := range parent {
		parent[i] = tree.None
	}
	for v := 0; v < dd.g.NumVertexSlots(); v++ {
		if !dd.t.Present(v) {
			continue
		}
		p := dd.t.Parent[v]
		if p == oldPseudo {
			p = dd.pseudo
		}
		parent[v] = p
	}
	dd.t = tree.MustBuild(dd.pseudo, parent, dd.presentMask())
	if dd.rebuildD {
		// Renaming the pseudo root moves no graph vertex relative to any
		// other (the root's children keep their ID order), so this is a
		// relabel-only incremental update with an empty moved set.
		dd.d.Update(dd.g, dd.t, dstruct.UpdateDelta{})
		dd.l = dd.d.LCA
	} else {
		// Unreachable today (InsertVertex rejects relocation in
		// fault-tolerant mode), but never clobber a caller-shared D.
		dd.l = lca.Build(dd.t)
		dd.d = dstruct.Build(dd.g, dd.t, dd.m)
	}
}

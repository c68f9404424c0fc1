// Package core implements the paper's fully dynamic DFS maintainer
// (Theorem 13): it owns the current graph G, its DFS tree T (under the
// pseudo-root convention of Section 2, so disconnected graphs are a single
// tree whose root children are component roots), and, for the executors
// that query it, the data structure D, and processes an online sequence of
// edge/vertex insertions and deletions.
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
// query. Its planner finds each deleted subtree's deepest edge from the
// updated graph's rows (reroot.NewRowPlanner): it walks up from low, and
// falls back to scanning the subtree's rows when the walk costs more. So a
// SubtreeDFS maintainer builds and maintains no D at all and D() is nil.
// Parallel is the paper's Section 4 engine (Theorem 13's polylog depth on m
// processors, executed sequentially here); the experiments, the
// fault-tolerant and the distributed maintainers select it, because its
// costs are what they report. Sequential is the Baswana et al. baseline.
//
// Only Parallel and Sequential maintainers hold a D. In the fully dynamic
// mode it is rebuilt in place over the new graph and tree after each
// update, as Theorem 13 does (dstruct.D.Rebuild, charged as Theorem 8's
// preprocessing on m processors). With rebuilding disabled the maintainer
// accumulates patches on the original D instead, which is the engine of
// the fault-tolerant algorithm (Theorem 14).
package core

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/dstruct"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pram"
	"repro/internal/reroot"
	"repro/internal/tree"
	"repro/internal/verify"
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
	// refresh mode D is rebuilt over the new graph and tree after every
	// update. Only Parallel and Sequential maintainers hold a D; under
	// SubtreeDFS the flag only governs pseudo-root relocation (see
	// InsertVertex).
	RebuildD bool
	// Headroom reserves vertex-ID slots between the graph and the pseudo
	// root so vertex insertions do not displace it. Default 64. When a
	// fully dynamic maintainer runs out of slots, it moves the pseudo root
	// to n + max(Headroom, n/4) over the graph's n vertex slots.
	Headroom int
	// Machine receives the PRAM cost accounting; a fresh one is created if
	// nil.
	Machine *pram.Machine
	// Executor selects how each rerooting step of the Section 3 reduction
	// runs. The zero value, SubtreeDFS, is the fastest on one core and is
	// what the serving layer runs; it queries no D, so its maintainer builds
	// none (D() is nil). Parallel selects the paper's Section 4 engine (the
	// model the experiments, the fault-tolerant and the distributed
	// maintainers report on) and Sequential the Baswana et al. baseline;
	// both hold a D. All three produce valid DFS trees, in general
	// different ones.
	Executor Executor
}

// Executor selects the rerooting executor; see reroot.Executor.
type Executor = reroot.Executor

// The rerooting executors (Options.Executor).
const (
	// SubtreeDFS reroots each subtree with one static DFS of the subgraph
	// it induces: O(|T(r)| + m(T(r))) per step, no D query and no D.
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
	d      *dstruct.D // nil under SubtreeDFS
	m      *pram.Machine
	pseudo int

	rebuildD  bool
	headroom  int // Options.Headroom: the relocation rule's minimum gap
	exec      Executor
	present   []bool // tree presence mask: graph vertices + pseudo, kept in step with g
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
// maintenance outcome ("rebuild", "pinned", "none"; the serving layer tags
// a refused update "rejected"), the back-edge SameTree tag, and the
// moved/removed set sizes. The serving layer attaches a fresh trace around
// every update it applies; single-tenant drivers may do the same. The
// attached trace stays installed until replaced, but stage accumulators
// reset at each SetTrace call.
func (dd *DynamicDFS) SetTrace(t *obs.Trace) {
	dd.trace = t
	dd.engineDur, dd.dmaintDur = 0, 0
}

// ModelProcs is the model processor budget of one maintainer over g: the
// paper's m processors, counted as 2m + n + 1 over g's edges and vertex
// slots. A machine shared by several maintainers holds the maximum.
func ModelProcs(g *graph.Persistent) int { return 2*g.NumEdges() + g.NumVertexSlots() + 1 }

// New builds the maintainer over g, which it retains (immutable: updates
// derive new versions and never write into it): computes the initial DFS
// tree (static preprocessing) and, unless the executor is SubtreeDFS, the
// data structure D.
func New(g *graph.Persistent, opt Options) *DynamicDFS {
	m := opt.Machine
	if m == nil {
		m = pram.NewMachine(ModelProcs(g))
	}
	dd := &DynamicDFS{
		g:        g,
		m:        m,
		rebuildD: opt.RebuildD,
		headroom: opt.headroom(),
		exec:     opt.Executor,
	}
	dd.pseudo = dd.g.NumVertexSlots() + dd.headroom
	dd.t = baseline.StaticDFSUnder(dd.g, dd.pseudo)
	dd.fillPresent()
	dd.buildD()
	return dd
}

// buildD builds D over the current graph and tree for the executors that
// query it; a SubtreeDFS maintainer keeps none.
func (dd *DynamicDFS) buildD() {
	if dd.exec != SubtreeDFS {
		dd.d = dstruct.Build(dd.g, dd.t, dd.m)
	}
}

// headroom is Options.Headroom with its default applied.
func (opt Options) headroom() int {
	if opt.Headroom <= 0 {
		return 64
	}
	return opt.Headroom
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
	dd := &DynamicDFS{
		g:        g,
		t:        t,
		d:        d,
		m:        m,
		pseudo:   pseudo,
		rebuildD: false,
		exec:     opt.Executor,
	}
	dd.fillPresent()
	return dd
}

// NewDynamicRestored assembles a fully dynamic maintainer over restored
// state — a deserialized WAL checkpoint, or any (graph, DFS tree) pair the
// caller already holds: g's DFS tree t rooted at pseudo, with updates
// already counted against the pair. D, for the executors that hold one, is
// built fresh from (g, t), so under the producer's Headroom and Executor
// the result is exactly the maintainer that produced the pair, minus
// per-update scratch. g and t are retained, not copied: both are immutable
// under the maintainer's regime (updates path-copy away from g; t is
// replaced, never mutated).
func NewDynamicRestored(g *graph.Persistent, t *tree.Tree, pseudo, updates int, opt Options) *DynamicDFS {
	m := opt.Machine
	if m == nil {
		m = pram.NewMachine(ModelProcs(g))
	}
	dd := &DynamicDFS{
		g:        g,
		t:        t,
		m:        m,
		pseudo:   pseudo,
		updates:  updates,
		rebuildD: true,
		headroom: opt.headroom(),
		exec:     opt.Executor,
	}
	dd.fillPresent()
	dd.buildD()
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

// D exposes the query structure (for the fault-tolerant wrapper). It is
// nil for a SubtreeDFS maintainer, which builds none.
func (dd *DynamicDFS) D() *dstruct.D { return dd.d }

// CheckSynced is the maintainer's differential oracle: the tree must be a
// DFS forest of the graph under the pseudo root, its LCA index must equal a
// fresh derivation from its numbering, and D, when the maintainer holds
// one, must equal a fresh build over the graph and tree. It is O(n + m).
func (dd *DynamicDFS) CheckSynced() error {
	if err := verify.DFSForest(dd.g, dd.t, dd.pseudo); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := dd.t.CheckIndex(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if dd.d != nil {
		return dd.d.CheckSynced(dd.g, dd.t)
	}
	return nil
}

// Machine returns the PRAM accounting machine.
func (dd *DynamicDFS) Machine() *pram.Machine { return dd.m }

// LastStats returns the rerooting statistics of the most recent update.
func (dd *DynamicDFS) LastStats() reroot.Stats { return dd.lastStats }

// QueryStats returns the D-query search effort accumulated over every
// update processed so far (each update's engine threads a per-call
// accumulator through the oracle; the maintainer rolls them up here). It
// stays zero for a SubtreeDFS maintainer, which queries no D.
func (dd *DynamicDFS) QueryStats() dstruct.Stats { return dd.qstats }

// Updates returns the number of updates processed.
func (dd *DynamicDFS) Updates() int { return dd.updates }

// fillPresent sizes the maintainer's presence mask to the pseudo root and
// fills it from the graph (graph vertices + pseudo). It runs when the
// maintainer is assembled and when the pseudo root moves; between those,
// InsertVertex and DeleteVertex flip the one entry their update changes, so
// the mask stays in step with g without a per-update refill. tree.Build
// only reads it (a stale mask makes Build fail), so one buffer serves every
// update.
func (dd *DynamicDFS) fillPresent() {
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
}

// apply runs an update's plan: an empty plan (a back-edge insert or delete)
// keeps the tree and lets D absorb the update's patch; any other plan runs
// on a fresh engine, whose result becomes the new tree. Every Reroot and
// the tree rebuild are timed into the update's engine span.
func (dd *DynamicDFS) apply(kind UpdateKind, p reroot.Plan) error {
	if len(p.Steps) == 0 {
		dd.lastStats = reroot.Stats{}
		dd.installTree(dd.t, nil)
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
	nt, err := e.Result(dd.pseudo, dd.present)
	if spent != nil {
		*spent += time.Since(t0)
	}
	if err != nil {
		return fmt.Errorf("core: rebuilding tree: %w", err)
	}
	dd.installTree(nt, e)
	dd.lastStats = e.Stats
	dd.qstats.Add(e.QStats)
	return nil
}

// installTree makes nt the current tree and refreshes D. e is the engine
// that built nt, whose moved and removed counts the trace reports. A nil e
// marks the back-edge fast paths, where the tree object is untouched.
func (dd *DynamicDFS) installTree(nt *tree.Tree, e *reroot.Engine) {
	dd.t = nt
	dd.updates++
	sameTree := e == nil
	var numMoved, numRemoved int
	if e != nil {
		numMoved, numRemoved = e.NumMoved(), e.NumRemoved()
	}
	var t0 time.Time
	if dd.trace != nil {
		t0 = time.Now()
	}
	outcome := "pinned"
	switch {
	case dd.d == nil:
		outcome = "none"
	case dd.rebuildD:
		dd.d.Rebuild(dd.g, dd.t, dd.m)
		outcome = "rebuild"
	}
	if tr := dd.trace; tr != nil {
		dd.dmaintDur += time.Since(t0)
		tr.Engine, tr.DMaint = dd.engineDur, dd.dmaintDur
		tr.Outcome = outcome
		tr.SameTree = sameTree
		tr.Moved, tr.Removed = numMoved, numRemoved
	}
}

// planner reduces the in-flight update against the current tree, charging
// its deepest-edge batch to the maintainer's machine and query totals.
// Without a D it reads the updated graph's rows instead of querying: it
// walks up from low, and falls back to scanning T(sub)'s rows.
func (dd *DynamicDFS) planner() reroot.Planner {
	if dd.d == nil {
		return reroot.NewRowPlanner(dd.t, dd.g, dd.m)
	}
	return reroot.NewPlanner(dd.t, dd.d, dd.m, &dd.qstats)
}

// engine creates a rerooting engine for the current tree, drawing its
// per-update buffers from the maintainer's reusable scratch.
func (dd *DynamicDFS) engine() *reroot.Engine {
	var d reroot.Oracle // stays a nil interface without D, never a nil *dstruct.D
	if dd.d != nil {
		d = dd.d
	}
	e := reroot.NewWithScratch(dd.t, d, dd.m, &dd.scratch)
	e.Executor, e.G = dd.exec, dd.g
	return e
}

// relocatePseudo moves the pseudo root to n + max(headroom, n/4) over the
// graph's n vertex slots, renaming it in the tree (all other vertex IDs are
// stable) and rebuilding the derived structures. The new ID depends only on
// n and the configured headroom, so a restored maintainer relocates exactly
// like the live one. The gap grows with n, so a run of insertions relocates
// O(log n) times, and it holds at most max(headroom, n/4) holes.
func (dd *DynamicDFS) relocatePseudo() {
	oldPseudo := dd.pseudo
	n := dd.g.NumVertexSlots()
	dd.pseudo = n + max(dd.headroom, n/4)
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
	dd.fillPresent()
	dd.t = tree.MustBuild(dd.pseudo, parent, dd.present)
	// Only a fully dynamic maintainer relocates (InsertVertex refuses it
	// when D is pinned), so D, if any, is its own to rebuild.
	if dd.d != nil {
		dd.d.Rebuild(dd.g, dd.t, dd.m)
	}
}

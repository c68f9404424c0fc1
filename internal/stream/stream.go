// Package stream implements the paper's semi-streaming fully dynamic DFS
// (Theorem 15): the graph's edges live in an external stream; the maintainer
// keeps only O(n) words resident (the DFS tree and per-update scratch) and
// answers every batch of independent D-queries with a single pass over the
// stream.
//
// The simulator enforces the model structurally: the edge set is reachable
// only through Stream.Pass, which counts invocations. Two pass counters are
// reported per update:
//
//   - Passes: the number of Pass invocations the simulator actually made.
//     A batch of independent queries is answered with one shared pass
//     (per-query source and walk-position maps, per-query best-hit folds),
//     so an update whose oracle traffic is all batches makes exactly one
//     physical pass per sequential batch;
//   - ScheduledPasses: the passes a synchronous-schedule execution needs —
//     the maintainer-level query rounds plus the critical-path count of the
//     engine's sequential query batches, each answerable by one shared pass
//     (Section 6.1: "the parallel queries on D made by our algorithm can be
//     answered simultaneously using a single pass").
//
// Theorem 15's O(log² n) bound is about ScheduledPasses; both are measured,
// and on single-chain updates they coincide (Passes can exceed
// ScheduledPasses only when the engine processes several independent
// component chains, whose batches the synchronous schedule overlaps).
//
// The Section 3 reduction itself is not here: every update runs
// reroot.Planner, the same code the core maintainer runs, with this
// package's pass-counting oracle answering its queries (Section 6.1: only
// who answers the D queries changes between models). The maintainer adds
// what the stream model needs around it: validating updates against the
// stream and mutating it, the incident-edge discovery pass of a vertex
// deletion, and the pass bookkeeping, which takes the planner's query
// round (0 or 1) and the engine's batches from the shared code.
package stream

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/dstruct"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/reroot"
	"repro/internal/tree"
)

// Stream is the external edge storage. Only Pass reads it. Alongside the
// edge slice it keeps an edge→index map so the dynamic input's own
// insert/remove mutations are O(1) instead of an O(m) scan (the map belongs
// to the input simulation, not to the maintainer's O(n) resident state).
type Stream struct {
	edges  []graph.Edge
	index  map[graph.Edge]int // canonical edge -> position in edges
	passes int64
}

// NewStream copies the edge list into external storage.
func NewStream(edges []graph.Edge) *Stream {
	s := &Stream{
		edges: make([]graph.Edge, 0, len(edges)),
		index: make(map[graph.Edge]int, len(edges)),
	}
	for _, e := range edges {
		s.insert(e)
	}
	return s
}

// Pass performs one sequential pass over the stream.
func (s *Stream) Pass(fn func(e graph.Edge)) {
	s.passes++
	for _, e := range s.edges {
		fn(e)
	}
}

// Passes returns the total number of passes made so far.
func (s *Stream) Passes() int64 { return s.passes }

// Len returns the number of edges currently in the stream.
func (s *Stream) Len() int { return len(s.edges) }

// insert and remove mutate the stream (the dynamic input itself changing;
// not counted as passes). Both are O(1): remove swap-deletes through the
// index map instead of scanning the slice.
func (s *Stream) insert(e graph.Edge) {
	c := e.Canon()
	s.index[c] = len(s.edges)
	s.edges = append(s.edges, c)
}

// has reports whether e is in the stream (an input-validation lookup on the
// simulation's index map, not a pass).
func (s *Stream) has(e graph.Edge) bool {
	_, ok := s.index[e.Canon()]
	return ok
}

func (s *Stream) remove(e graph.Edge) bool {
	c := e.Canon()
	i, ok := s.index[c]
	if !ok {
		return false
	}
	last := len(s.edges) - 1
	moved := s.edges[last]
	s.edges[i] = moved
	s.index[moved] = i
	s.edges = s.edges[:last]
	delete(s.index, c)
	return true
}

// oracle answers engine queries with one pass each, using O(n) scratch.
type oracle struct {
	s *Stream
	// scratchPeak tracks the largest per-query resident scratch in words,
	// for the O(n) memory audit.
	scratchPeak int
}

func (o *oracle) note(words int) {
	if words > o.scratchPeak {
		o.scratchPeak = words
	}
}

// The single-query entry points are one-element batches, so the fold and
// tie-break rules live only in the batch executor.

func (o *oracle) EdgeToWalk(sources, walk []int, fromEnd bool, st *dstruct.Stats) (dstruct.Hit, bool) {
	ans := o.EdgeToWalkBatch([]dstruct.WalkQuery{
		{Sources: sources, Walk: walk, FromEnd: fromEnd},
	}, st)
	return ans[0].Hit, ans[0].OK
}

func (o *oracle) EdgeToWalkBySource(sources, walk []int, fromEnd bool, st *dstruct.Stats) (dstruct.Hit, bool) {
	ans := o.EdgeToWalkBatch([]dstruct.WalkQuery{
		{Sources: sources, Walk: walk, FromEnd: fromEnd, BySource: true},
	}, st)
	return ans[0].Hit, ans[0].OK
}

func (o *oracle) HasEdgeToWalk(sources, walk []int, st *dstruct.Stats) bool {
	_, ok := o.EdgeToWalk(sources, walk, true, st)
	return ok
}

// batchState is one active query's state during a coalesced batch pass:
// its source lookup (membership for EdgeToWalk, submission order for
// BySource), its walk-position index, and its running best hit. The lookup
// maps are shared across queries that pass the same underlying slice —
// the engine's batches reuse source and walk slices heavily (disjoint
// subtree sets against one shared walk), which is what keeps the resident
// scratch of a whole batch O(n) rather than O(batch·n).
type batchState struct {
	src       map[int]bool // EdgeToWalk: source membership
	order     map[int]int  // BySource: source -> first submission index
	pos       map[int]int  // walk vertex -> walk index
	fromEnd   bool
	bySource  bool
	nSources  int
	best      dstruct.Hit
	bestOrder int
	found     bool
}

// sliceKey identifies a []int by its backing storage, so lookup maps built
// from the same slice are shared within one batch.
type sliceKey struct {
	ptr *int
	n   int
}

func keyOf(s []int) sliceKey { return sliceKey{&s[0], len(s)} }

func (b *batchState) consider(u, z int) {
	p, on := b.pos[z]
	if !on {
		return
	}
	h := dstruct.Hit{U: u, Z: z, ZPos: p}
	if b.bySource {
		ord, isSrc := b.order[u]
		if !isSrc || ord > b.bestOrder {
			return
		}
		if ord < b.bestOrder {
			b.bestOrder, b.best, b.found = ord, h, true
			return
		}
		if (b.fromEnd && h.ZPos > b.best.ZPos) || (!b.fromEnd && h.ZPos < b.best.ZPos) {
			b.best = h
		}
		return
	}
	if !b.src[u] {
		return
	}
	switch {
	case !b.found:
		b.best, b.found = h, true
	case h.ZPos != b.best.ZPos:
		if (b.fromEnd && h.ZPos > b.best.ZPos) || (!b.fromEnd && h.ZPos < b.best.ZPos) {
			b.best = h
		}
	case h.U < b.best.U:
		b.best = h
	}
}

// EdgeToWalkBatch answers the whole batch with one shared pass over the
// stream — the Section 6.1 simultaneity the ScheduledPasses measure models,
// executed for real: every active query keeps its own source/walk-position
// maps and folds its own best hit per edge, with exactly the tie-break
// rules of the single-query paths, so physical Passes advance by one per
// batch instead of one per query. Trivial queries (empty sources or walk)
// are answered false without touching the stream; a batch with no active
// query costs zero passes.
func (o *oracle) EdgeToWalkBatch(qs []dstruct.WalkQuery, st *dstruct.Stats) []dstruct.WalkAnswer {
	out := make([]dstruct.WalkAnswer, len(qs))
	states := make([]*batchState, 0, len(qs))
	srcMaps := make(map[sliceKey]map[int]bool)
	orderMaps := make(map[sliceKey]map[int]int)
	posMaps := make(map[sliceKey]map[int]int)
	resident := 0
	for _, q := range qs {
		if len(q.Sources) == 0 || len(q.Walk) == 0 {
			continue
		}
		if st != nil {
			st.WalkQueries++
		}
		b := &batchState{
			fromEnd:   q.FromEnd,
			bySource:  q.BySource,
			nSources:  len(q.Sources),
			best:      dstruct.Hit{ZPos: -1},
			bestOrder: len(q.Sources),
		}
		if q.BySource {
			k := keyOf(q.Sources)
			if m, ok := orderMaps[k]; ok {
				b.order = m
			} else {
				b.order = make(map[int]int, len(q.Sources))
				for i, v := range q.Sources {
					if _, dup := b.order[v]; !dup {
						b.order[v] = i
					}
				}
				orderMaps[k] = b.order
				resident += len(q.Sources)
			}
		} else {
			k := keyOf(q.Sources)
			if m, ok := srcMaps[k]; ok {
				b.src = m
			} else {
				b.src = make(map[int]bool, len(q.Sources))
				for _, v := range q.Sources {
					b.src[v] = true
				}
				srcMaps[k] = b.src
				resident += len(q.Sources)
			}
		}
		wk := keyOf(q.Walk)
		if m, ok := posMaps[wk]; ok {
			b.pos = m
		} else {
			b.pos = make(map[int]int, len(q.Walk))
			for i, v := range q.Walk {
				b.pos[v] = i
			}
			posMaps[wk] = b.pos
			resident += len(q.Walk)
		}
		states = append(states, b)
	}
	if len(states) == 0 {
		return out
	}
	o.note(resident)
	o.s.Pass(func(e graph.Edge) {
		for _, b := range states {
			b.consider(e.U, e.V)
			b.consider(e.V, e.U)
		}
	})
	k := 0
	for i, q := range qs {
		if len(q.Sources) == 0 || len(q.Walk) == 0 {
			continue
		}
		b := states[k]
		k++
		if b.bySource {
			out[i] = dstruct.WalkAnswer{Hit: b.best, OK: b.bestOrder < b.nSources}
		} else {
			out[i] = dstruct.WalkAnswer{Hit: b.best, OK: b.found}
		}
	}
	return out
}

// Maintainer is the semi-streaming fully dynamic DFS algorithm.
type Maintainer struct {
	s      *Stream
	o      *oracle
	t      *tree.Tree
	mach   *pram.Machine // absorbs the model charges; the stream model counts passes
	pseudo int
	slots  int // graph vertex-ID slots
	alive  []bool

	lastPasses    int64
	lastScheduled int
	lastStats     reroot.Stats
	scratch       reroot.Scratch
}

// New builds the maintainer: the preprocessing DFS tree is computed from
// the initial stream (preprocessing is outside the per-update pass budget,
// as in the paper where the initial tree is given).
func New(g *graph.Persistent) *Maintainer {
	m := &Maintainer{
		s:     NewStream(g.Edges()),
		slots: g.NumVertexSlots(),
		mach:  pram.NewMachine(g.NumVertexSlots()),
	}
	m.o = &oracle{s: m.s}
	m.pseudo = m.slots + 64
	m.alive = make([]bool, m.slots)
	for v := 0; v < m.slots; v++ {
		m.alive[v] = g.IsVertex(v)
	}
	m.t = baseline.StaticDFSUnder(g, m.pseudo)
	return m
}

func (m *Maintainer) present() []bool {
	p := make([]bool, m.pseudo+1)
	copy(p, m.alive)
	p[m.pseudo] = true
	return p
}

// Tree returns the current DFS tree (pseudo-rooted).
func (m *Maintainer) Tree() *tree.Tree { return m.t }

// PseudoRoot returns the pseudo root ID.
func (m *Maintainer) PseudoRoot() int { return m.pseudo }

// Stream exposes the external storage (for pass-count assertions).
func (m *Maintainer) Stream() *Stream { return m.s }

// LastPasses returns the physical passes of the most recent update.
func (m *Maintainer) LastPasses() int64 { return m.lastPasses }

// LastScheduledPasses returns the synchronous-schedule pass count of the
// most recent update (the Theorem 15 measure): the maintainer-level query
// rounds — incident-edge discovery, the pre-reroot deepest-edge batch —
// plus the engine's critical-path batch count. With the coalesced batch
// executor every one of those rounds is one physical pass, so LastPasses
// equals this whenever the engine's components form a single chain.
func (m *Maintainer) LastScheduledPasses() int { return m.lastScheduled }

// LastStats returns the rerooting statistics of the most recent update.
func (m *Maintainer) LastStats() reroot.Stats { return m.lastStats }

// ResidentWords audits the maintainer's resident memory in words: the tree
// arrays (parent, level, size, post, pre, out ≈ 6 per slot) plus the peak
// per-query scratch. All are O(n).
func (m *Maintainer) ResidentWords() int {
	return 6*m.t.N() + len(m.alive) + m.o.scratchPeak
}

// planner reduces the in-flight update against the current tree, with
// every query answered by stream passes.
func (m *Maintainer) planner() reroot.Planner {
	return reroot.NewPlanner(m.t, m.o, m.mach, nil)
}

// apply runs an update's plan and records its pass accounting. discovery
// is the number of passes (0 or 1) the update made before planning; the
// synchronous schedule adds the plan's query round and the engine's
// critical-path batches. An empty plan (a back edge) keeps the tree.
func (m *Maintainer) apply(p reroot.Plan, passesBefore int64, discovery int) error {
	m.lastStats = reroot.Stats{}
	if len(p.Steps) > 0 {
		e := reroot.NewWithScratch(m.t, m.o, m.mach, &m.scratch)
		if err := p.Run(e, nil); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		nt, err := e.Result(m.pseudo, m.present())
		if err != nil {
			return fmt.Errorf("stream: rebuilding tree: %w", err)
		}
		m.t, m.lastStats = nt, e.Stats
	}
	m.lastPasses = m.s.passes - passesBefore
	m.lastScheduled = discovery + p.Rounds + m.lastStats.Batches
	return nil
}

// Snapshot reconstructs the current graph from the stream with one pass.
// It is a workload/test helper and not part of the maintainer's O(n)
// resident state (the pass is counted like any other).
func (m *Maintainer) Snapshot() *graph.Persistent {
	var edges []graph.Edge
	m.s.Pass(func(e graph.Edge) { edges = append(edges, e) })
	g := graph.MustFromEdges(m.slots, edges)
	for v := 0; v < m.slots; v++ {
		if !m.alive[v] {
			var err error
			if g, err = g.DeleteVertex(v); err != nil {
				panic(err)
			}
		}
	}
	return g
}

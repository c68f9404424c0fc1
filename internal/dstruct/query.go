package dstruct

// Query evaluation. A "walk" is the explicit vertex sequence of a path that
// was just attached to the partially built DFS tree T*: walk[0] is the
// attachment end (shallowest in T*), walk[len-1] the deepest. The paper's
// "lowest edge on the path" is the hit with maximum ZPos; "highest" is
// minimum ZPos.
//
// Internally the walk is split into maximal runs that are monotone
// ancestor-descendant paths of the *base* tree T (Section 5.2's reduction of
// queries on T*_i paths to queries on T paths). In fully dynamic mode the
// engine's walks are T*-paths that mix base-tree edges with back-edge hops,
// so a walk splits into one run per maximal tree-monotone stretch; in fault
// tolerant mode a walk decomposes into the O(log^{2(i-1)} n) fragments of
// Theorem 9.
//
// Cost of a batch: the rerooting engine sends many small-source queries
// against the same walk slice, so EdgeToWalkBatch prepares each *distinct*
// walk once — its run decomposition, plus the walk-position index when D
// holds inserted-edge patches — and shares it across every query on it.
// Walks are keyed by identity (first-element pointer and length). A batch
// of k total sources therefore costs O(Σ|distinct walk| + k log n) work per
// run, not O(Σ|walk per query| + k log n). Stats still counts WalkQueries
// and RunsSplit once per query, exactly as one-by-one calls would.
//
// Accounting: a batch of independent queries is *charged* by the caller as
// one O(log n)-depth EREW step over k total sources (Theorems 6 and 8).
// This file never touches the machine: every query runs serially on the
// calling goroutine, scanning its sources in order.

// run is a maximal T-monotone fragment of a walk.
type run struct {
	lo, hi int  // walk index range [lo, hi]
	desc   bool // true if walk[lo] is the T-ancestor (walk descends in T)
	patch  bool // singleton run at a patch vertex (no base numbering)
}

// splitRuns decomposes walk into runs. Exported for tests via SplitRunCount.
func (d *D) splitRuns(walk []int) []run {
	var runs []run
	i := 0
	for i < len(walk) {
		if !d.hasBaseNumbering(walk[i]) {
			runs = append(runs, run{lo: i, hi: i, patch: true})
			i++
			continue
		}
		j := i
		var desc, have bool
		for j+1 < len(walk) && d.hasBaseNumbering(walk[j+1]) {
			a, b := walk[j], walk[j+1]
			var stepDesc bool
			switch {
			case d.T.Parent[b] == a:
				stepDesc = true
			case d.T.Parent[a] == b:
				stepDesc = false
			default:
				goto done
			}
			if have && stepDesc != desc {
				goto done
			}
			desc, have = stepDesc, true
			j++
		}
	done:
		runs = append(runs, run{lo: i, hi: j, desc: desc})
		i = j + 1
	}
	return runs
}

// SplitRunCount returns the number of base-tree fragments the walk
// decomposes into (the paper's fragment count).
func (d *D) SplitRunCount(walk []int) int { return len(d.splitRuns(walk)) }

func (r run) top(walk []int) int {
	if r.desc {
		return walk[r.lo]
	}
	return walk[r.hi]
}

func (r run) bot(walk []int) int {
	if r.desc {
		return walk[r.hi]
	}
	return walk[r.lo]
}

// zPos maps a tree vertex z known to lie on the run back to its walk index.
func (d *D) zPos(r run, walk []int, z int) int {
	top := r.top(walk)
	depth := d.T.Level(z) - d.T.Level(top)
	if r.desc {
		return r.lo + depth
	}
	return r.hi - depth
}

// walkEval is a walk prepared for evaluation: its base-tree run
// decomposition plus a walk-position index, which only patch-edge hits
// read. A batch prepares each distinct walk once and shares the walkEval
// across every query on it. The index is built on first use, so unpatched
// queries never pay for it.
type walkEval struct {
	walk []int
	runs []run
	pos  map[int]int
}

// prepWalk decomposes walk into runs.
func (d *D) prepWalk(walk []int) *walkEval {
	return &walkEval{walk: walk, runs: d.splitRuns(walk)}
}

// count charges one query on ev against st.
func (ev *walkEval) count(st *Stats) {
	st.WalkQueries++
	st.RunsSplit += int64(len(ev.runs))
}

// posOf resolves the walk position of a patch-edge endpoint, building the
// index on first use.
func (ev *walkEval) posOf(z int) (int, bool) {
	if ev.pos == nil {
		ev.pos = make(map[int]int, len(ev.walk))
		for i, v := range ev.walk {
			ev.pos[v] = i
		}
	}
	i, ok := ev.pos[z]
	return i, ok
}

// better reports whether hit a beats hit b under the documented order:
// extremal ZPos first (max when fromEnd, min otherwise), smallest U on ties.
func better(a, b Hit, fromEnd bool) bool {
	if a.ZPos != b.ZPos {
		if fromEnd {
			return a.ZPos > b.ZPos
		}
		return a.ZPos < b.ZPos
	}
	return a.U < b.U
}

// EdgeToWalk finds a graph edge from the source vertex set to the walk.
// If fromEnd, it returns the hit with maximum ZPos (the paper's lowest
// edge); otherwise minimum ZPos (highest edge). Sources must be disjoint
// from the walk. Ties between sources resolve to the smallest U.
//
// st receives the call's search-effort counters; nil discards them. D is
// never mutated, so concurrent calls with distinct accumulators are safe.
func (d *D) EdgeToWalk(sources []int, walk []int, fromEnd bool, st *Stats) (Hit, bool) {
	if len(sources) == 0 || len(walk) == 0 {
		return Hit{}, false
	}
	if st == nil {
		st = new(Stats)
	}
	ev := d.prepWalk(walk)
	ev.count(st)
	return d.edgeToWalk(sources, fromEnd, ev, st)
}

// edgeToWalk scans sources in order for the best hit under fromEnd; st
// receives the search-effort counters.
func (d *D) edgeToWalk(sources []int, fromEnd bool, ev *walkEval, st *Stats) (Hit, bool) {
	best := Hit{ZPos: -1}
	have := false
	for _, u := range sources {
		if h, ok := d.bestFromVertex(u, ev, fromEnd, st); ok {
			if !have || better(h, best, fromEnd) {
				best, have = h, true
			}
		}
	}
	return best, have
}

// EdgeToWalkBySource returns, for each source in order, whether it has any
// edge to the walk, stopping at the first source that does (used by the
// heavy-subtree traversal's "deepest hang point" selection, where the pick
// is by source priority rather than walk position). The returned hit uses
// the source's best walk position under fromEnd. st is the per-call Stats
// accumulator (nil discards).
func (d *D) EdgeToWalkBySource(sources []int, walk []int, fromEnd bool, st *Stats) (Hit, bool) {
	if len(walk) == 0 {
		return Hit{}, false
	}
	if st == nil {
		st = new(Stats)
	}
	ev := d.prepWalk(walk)
	ev.count(st)
	return d.edgeToWalkBySource(sources, fromEnd, ev, st)
}

// edgeToWalkBySource is the first-hit scan in source order: it stops at
// the first source with an edge to the walk.
func (d *D) edgeToWalkBySource(sources []int, fromEnd bool, ev *walkEval, st *Stats) (Hit, bool) {
	for _, u := range sources {
		if h, ok := d.bestFromVertex(u, ev, fromEnd, st); ok {
			return h, true
		}
	}
	return Hit{}, false
}

// HasEdgeToWalk reports whether any source has an edge to the walk. st is
// the per-call Stats accumulator (nil discards).
func (d *D) HasEdgeToWalk(sources []int, walk []int, st *Stats) bool {
	_, ok := d.EdgeToWalk(sources, walk, true, st)
	return ok
}

// WalkQuery is one query of a batch: the paper's rounds issue many
// independent (source set, walk) queries at once (Theorems 6 and 8).
// BySource selects EdgeToWalkBySource semantics instead of EdgeToWalk.
type WalkQuery struct {
	Sources  []int
	Walk     []int
	FromEnd  bool
	BySource bool
}

// WalkAnswer is the result of one WalkQuery.
type WalkAnswer struct {
	Hit Hit
	OK  bool
}

// EdgeToWalkBatch answers a batch of independent queries, equivalent to
// issuing them one by one in order (answers and Stats alike). Each distinct
// walk is prepared once for the whole batch (see prepBatch). Callers
// account the batch's model cost analytically (one O(log n)-depth step);
// this method charges nothing. st is the per-call Stats accumulator (nil
// discards).
func (d *D) EdgeToWalkBatch(qs []WalkQuery, st *Stats) []WalkAnswer {
	out := make([]WalkAnswer, len(qs))
	if len(qs) == 0 {
		return out
	}
	if st == nil {
		st = new(Stats)
	}
	evs := d.prepBatch(qs, st)
	for i, q := range qs {
		if ev := evs[i]; ev == nil {
			continue
		} else if q.BySource {
			out[i].Hit, out[i].OK = d.edgeToWalkBySource(q.Sources, q.FromEnd, ev, st)
		} else {
			out[i].Hit, out[i].OK = d.edgeToWalk(q.Sources, q.FromEnd, ev, st)
		}
	}
	return out
}

// prepBatch returns each query's prepared walk, nil for a query that a
// one-by-one call would answer without looking at its walk (an empty walk,
// or empty sources outside BySource), and charges every other query
// against st as that call would. Walks are keyed by identity — the
// first-element pointer and the length — so queries sharing a walk slice
// share one walkEval.
func (d *D) prepBatch(qs []WalkQuery, st *Stats) []*walkEval {
	type walkKey struct {
		first *int
		n     int
	}
	evs := make([]*walkEval, len(qs))
	seen := make(map[walkKey]*walkEval)
	for i, q := range qs {
		if len(q.Walk) == 0 || (!q.BySource && len(q.Sources) == 0) {
			continue
		}
		k := walkKey{&q.Walk[0], len(q.Walk)}
		ev := seen[k]
		if ev == nil {
			ev = d.prepWalk(q.Walk)
			seen[k] = ev
		}
		ev.count(st)
		evs[i] = ev
	}
	return evs
}

// bestFromVertex finds u's best hit across all runs plus patch edges.
func (d *D) bestFromVertex(u int, ev *walkEval, fromEnd bool, st *Stats) (Hit, bool) {
	best := Hit{ZPos: -1}
	have := false
	take := func(h Hit) {
		if !have || (fromEnd && h.ZPos > best.ZPos) || (!fromEnd && h.ZPos < best.ZPos) {
			best, have = h, true
		}
	}
	if d.hasBaseNumbering(u) {
		for _, r := range ev.runs {
			if r.patch {
				continue
			}
			if z, ok := d.searchRun(u, r, ev.walk, fromEnd, st); ok {
				take(Hit{U: u, Z: z, ZPos: d.zPos(r, ev.walk, z)})
			}
		}
	}
	// Patch edges from u (inserted after Build): position via the walk index.
	for _, z := range d.inserted[u] {
		st.PatchScans++
		if p, ok := ev.posOf(z); ok {
			take(Hit{U: u, Z: z, ZPos: p})
		}
	}
	return best, have
}

// searchRun finds u's extremal base-graph neighbor on the run, preferring
// the walk-end side when fromEnd. Returns the neighbor z.
func (d *D) searchRun(u int, r run, walk []int, fromEnd bool, st *Stats) (int, bool) {
	t := d.T
	top, bot := r.top(walk), r.bot(walk)
	// wantTreeHigh: do we want the hit nearest the run's tree-top?
	// fromEnd means "nearest walk[hi]"; for a descending run walk[hi] is the
	// tree-bottom, for an ascending run it is the tree-top.
	wantTreeHigh := fromEnd != r.desc

	switch {
	case t.IsAncestor(top, u):
		// Case A: u below the run's top; its neighbors on the run are
		// exactly its ancestors with key in [key(l), key(top)],
		// l = LCA(u, bot).
		st.Searches++
		l := d.LCA.LCA(u, bot)
		return d.scanRange(u, d.key[l], d.key[top], wantTreeHigh, nil, st)
	case t.IsAncestor(u, top):
		// Case B (multi-update mode only): u is an ancestor of the whole
		// run; candidates are descendants with key in [key(bot),
		// key(top)], filtered to the run's chain.
		st.Searches++
		st.CaseB++
		onRun := func(z int) bool {
			return t.IsAncestor(top, z) && t.IsAncestor(z, bot)
		}
		return d.scanRange(u, d.key[bot], d.key[top], wantTreeHigh, onRun, st)
	default:
		// Incomparable: a base-graph edge would be a cross edge of T —
		// impossible.
		return 0, false
	}
}

// scanRange searches nbr[u] within order-key range [lokey, hikey].
// Entries nearer the tree-top have larger keys, so wantTreeHigh scans from
// the high end. filter (may be nil) restricts to run membership; deleted
// edges are skipped.
func (d *D) scanRange(u, lokey, hikey int, wantTreeHigh bool, filter func(int) bool, st *Stats) (int, bool) {
	row := d.nbr[u]
	lo := lowerBound(row, lokey, d.key) // first index with key >= lokey
	hi := upperBound(row, hikey, d.key) // first index with key > hikey
	if wantTreeHigh {
		for i := hi - 1; i >= lo; i-- {
			st.ScanSteps++
			z := int(row[i])
			if (filter == nil || filter(z)) && !d.edgeDeleted(u, z) {
				return z, true
			}
		}
	} else {
		for i := lo; i < hi; i++ {
			st.ScanSteps++
			z := int(row[i])
			if (filter == nil || filter(z)) && !d.edgeDeleted(u, z) {
				return z, true
			}
		}
	}
	return 0, false
}

func lowerBound(row []int32, k int, key []int) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if key[row[mid]] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func upperBound(row []int32, k int, key []int) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if key[row[mid]] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

package reroot

import (
	"fmt"

	"repro/internal/dstruct"
	"repro/internal/tree"
)

// heavy handles the hard case of Section 4.4: the entry vertex rc lies
// inside a heavy subtree τ, is not its root, and is outside T(v_H). The
// three scenarios (l, p, r traversals) are tried in order; each failed
// scenario supplies the back edge that powers the next. The paper's special
// case (Section "Special case of heavy subtree traversal") is reached when
// all three are inapplicable.
//
// Every scenario is guarded: if its planned walk is geometrically invalid
// (a degenerate configuration the paper's prose glosses over, e.g. a chosen
// back edge landing on an already-planned vertex), the engine abandons the
// scenario chain and uses the always-correct l-shaped fallback, counting it
// in Stats.Fallbacks.
//
// Scenario 2's inputs do not depend on scenario 1's answer, only on its
// walk — so its probes are issued speculatively: the chain-hanger
// eligibility round merges into scenario 1's eligibility round, and the
// (xd,yd) witness + pc-cap probes ride in scenario 1's own query batch.
// When scenario 1 succeeds the speculative answers are discarded (wasted
// work, same round count); when it fails, scenario 2 starts two rounds
// earlier. The charge accounting follows the physical batches one to one,
// so the streaming oracle's pass parity (LastPasses == ScheduledPasses on
// single-chain updates) is preserved.
func (e *Engine) heavy(c *Comp, rcPiece, vH int) ([]*Comp, error) {
	t := e.T
	p := c.Pieces[rcPiece]
	rc, rPrime := c.RC, p.Root

	pcIdx := -1
	for i, q := range c.Pieces {
		if q.IsPath {
			pcIdx = i
			break
		}
	}
	if pcIdx < 0 {
		return nil, fmt.Errorf("heavy: no path piece")
	}
	pc := c.Pieces[pcIdx]
	pcVerts := pc.vertices(t, nil)
	onPc := func(v int) bool { return pc.contains(t, v) }

	vl := e.T.LCA(rc, vH)
	vL := t.ChildToward(vl, vH)

	rest := func(exclude ...int) []Piece {
		var out []Piece
		for i, q := range c.Pieces {
			skip := false
			for _, x := range exclude {
				if i == x {
					skip = true
				}
			}
			if !skip {
				out = append(out, q)
			}
		}
		return out
	}

	// ---- Scenario 1: l traversal along p*_L = path(rc, r'). ----
	wl := e.newWalk()
	wl.ascend(rc, rPrime)
	if wl.err != nil {
		return nil, fmt.Errorf("heavy: l walk: %v", wl.err)
	}
	pLwalk := wl.verts
	ixL := e.indexWalk(pLwalk)
	hangersL := e.hangersOfWalk(pLwalk, ixL)

	// Scenario 2's geometry — the chain [vL..vH] and its hanging subtrees —
	// is pure tree work, computed up front so its eligibility round and its
	// probes can be coalesced with scenario 1's. Speculation is skipped when
	// vl == rPrime: there is no room above vl for the p/r legs, so a failed
	// scenario 1 goes straight to the fallback.
	speculate := vl != rPrime
	var chain, chainHangers []int
	var onChain map[int]bool
	if speculate {
		chain = t.PathUp(vH, vL) // vH .. vL (deep to shallow)
		onChain = make(map[int]bool, len(chain))
		for _, q := range chain {
			onChain[q] = true
		}
		for _, q := range chain {
			for ch := t.FirstChild(q); ch != tree.None; ch = t.NextSibling(ch) {
				if !onChain[ch] && !t.IsAncestor(ch, vH) {
					chainHangers = append(chainHangers, ch)
				}
			}
		}
	}
	var eligL, eligChain []int
	if speculate {
		groups := e.eligibleGroups(c, [][]int{hangersL, chainHangers}, pcVerts)
		eligL, eligChain = groups[0], groups[1]
	} else {
		eligL = e.eligible(c, hangersL, pcVerts)
	}

	// One batch round answers scenario 1's highest-edge query and — when
	// speculating — scenario 2's (xd,yd) witness and pc-cap probes. eligD:
	// the eligible hangers of p*_L except T(vL), plus those of the chain.
	src1 := append(e.subtreeVerts(eligL), pcVerts...)
	var hit1, hitD, hitPC dstruct.Hit
	var ok1, okD, okPC bool
	if speculate {
		var eligD []int
		for _, h := range eligL {
			if h != vL {
				eligD = append(eligD, h)
			}
		}
		eligD = append(eligD, eligChain...)
		srcD := e.subtreeVerts(eligD)
		e.chargeBatch(c, len(src1)+len(srcD)+len(pcVerts))
		ans := e.D.EdgeToWalkBatch([]dstruct.WalkQuery{
			{Sources: src1, Walk: pLwalk, FromEnd: true}, // lowest on p*_L = highest on path(rc,r')
			{Sources: srcD, Walk: pLwalk, FromEnd: true},
			{Sources: pcVerts, Walk: pLwalk, FromEnd: true},
		}, &e.QStats)
		hit1, ok1 = ans[0].Hit, ans[0].OK
		hitD, okD = ans[1].Hit, ans[1].OK
		hitPC, okPC = ans[2].Hit, ans[2].OK
	} else {
		e.chargeBatch(c, len(src1))
		hit1, ok1 = e.D.EdgeToWalk(src1, pLwalk, true, &e.QStats)
	}
	if !ok1 {
		return nil, fmt.Errorf("heavy: pc-component has no edge to path(rc,r')")
	}
	x1 := hit1.U
	if !t.IsAncestor(vL, x1) || t.IsAncestor(vH, x1) || x1 == vL || onPc(x1) {
		e.Stats.HeavyL++
		remaining := e.splitSubtree(rPrime, ixL, nil)
		remaining = append(remaining, rest(rcPiece)...)
		return e.processComp(c, pLwalk, remaining)
	}

	// ---- Scenario 2: p traversal. ----
	if !speculate {
		// vl == rPrime: the paper's scenarios assume a non-empty upper path.
		return e.heavyFallback(c, rcPiece)
	}
	ydEff := rc
	if okD {
		ydEff = hitD.Z
	}
	// Query segment S = [sStart..r'] for (xp,yp), restricted so that
	// (a) sStart is strictly above vl (the back-edge target may not land on
	//     the l-leg, or the walk self-intersects), and
	// (b) yp is at or above every pc→path(rc,r') edge — otherwise the
	//     untraversed p' = path(par(yp), r') stays connected to pc and the
	//     resulting component has two paths, violating A1. Lemma 3's proof
	//     covers the eligible subtrees (via yd) but pc's own edges need
	//     this explicit cap; (x1,y1) remains a valid candidate because y1
	//     is the maximum over pc and all eligibles.
	sStart := t.Parent[vl]
	if t.Level(ydEff) < t.Level(sStart) {
		sStart = ydEff
	}
	if okPC && t.Level(hitPC.Z) < t.Level(sStart) {
		sStart = hitPC.Z
	}
	segS := t.PathUp(sStart, rPrime)
	// Ordered sources by hang depth on the chain, deepest LCA(x',vH) first.
	var ordered []int
	ordered = t.SubtreeVertices(vH, ordered)
	for i := 1; i < len(chain); i++ { // chain[0] = vH already covered
		q := chain[i]
		ordered = append(ordered, q)
		for ch := t.FirstChild(q); ch != tree.None; ch = t.NextSibling(ch) {
			if !onChain[ch] && !t.IsAncestor(ch, vH) {
				ordered = t.SubtreeVertices(ch, ordered)
			}
		}
	}
	e.chargeBatch(c, len(ordered))
	hitP, okP := e.D.EdgeToWalkBySource(ordered, segS, true, &e.QStats)
	if !okP {
		return e.heavyFallback(c, rcPiece)
	}
	xp, yp := hitP.U, hitP.Z

	wp := e.newWalk()
	wp.ascend(rc, vl)
	wp.descend(vl, xp)
	wp.hop(yp)
	wp.descend(yp, t.Parent[vl])
	if wp.err != nil {
		return e.heavyFallback(c, rcPiece)
	}
	pPwalk := wp.verts
	ixP := e.indexWalk(pPwalk)
	splitP := e.splitSubtree(rPrime, ixP, nil)
	srcs2 := append(e.eligiblePieceVerts(c, splitP, pcVerts), pcVerts...)
	e.chargeBatch(c, len(srcs2))
	hit2, ok2 := e.D.EdgeToWalk(srcs2, pPwalk, true, &e.QStats)
	if !ok2 {
		return e.heavyFallback(c, rcPiece)
	}
	x2 := hit2.U
	qStar := e.T.LCA(xp, vH)
	vP := -1
	if qStar != vH && !ixP.onWalk(vH) {
		vP = t.ChildToward(qStar, vH)
	}
	if vP < 0 || !t.IsAncestor(vP, x2) || t.IsAncestor(vH, x2) || x2 == vP || onPc(x2) {
		e.Stats.HeavyP++
		remaining := append(splitP, rest(rcPiece)...)
		return e.processComp(c, pPwalk, remaining)
	}

	// ---- Scenario 3: r traversal. ----
	// τp: the chain hanger containing xp (if any).
	tauP := -1
	if qStar != vH && !t.IsAncestor(vH, xp) && xp != qStar && !onChain[xp] {
		if t.IsAncestor(vL, xp) {
			tauP = t.ChildToward(qStar, xp)
			if onChain[tauP] || t.IsAncestor(tauP, vH) {
				tauP = -1
			}
		}
	}
	xr, yr := x2, hit2.Z
	if tauP >= 0 {
		tv := t.SubtreeVertices(tauP, nil)
		e.chargeBatch(c, len(tv))
		// Lowest (deepest) edge from τp to path(rc,r').
		if hitT, okT := e.D.EdgeToWalk(tv, pLwalk, false, &e.QStats); okT {
			if t.Level(hitT.Z) > t.Level(yr) {
				xr, yr = hitT.U, hitT.Z
			}
		}
	}
	// Validity: yr must lie strictly above vl on path(rc,r') for the
	// closing leg [yr..r'] to be disjoint from the descent.
	if !t.IsAncestor(yr, vl) || yr == vl {
		return e.heavyFallback(c, rcPiece)
	}
	// A1 for the untraversed gap p1 = (vl..yr): neither pc nor the (xd,yd)
	// witness may have an edge landing inside it, else the pc-component
	// acquires a second path. The paper resolves the remaining τd=τp
	// geometry in its special case; any other connector sends us to the
	// fallback (counted, never observed on test workloads).
	if yr != t.Parent[vl] {
		gapTop := t.ChildToward(yr, vl)
		gap := t.PathUp(t.Parent[vl], gapTop)
		if okD && t.IsAncestor(gapTop, ydEff) && t.IsAncestor(ydEff, t.Parent[vl]) {
			return e.heavyFallback(c, rcPiece)
		}
		e.chargeBatch(c, len(pcVerts))
		if e.D.HasEdgeToWalk(pcVerts, gap, &e.QStats) {
			return e.heavyFallback(c, rcPiece)
		}
	}
	wr := e.newWalk()
	wr.ascend(rc, vl)
	wr.descend(vl, xr)
	wr.hop(yr)
	wr.ascend(yr, rPrime)
	if wr.err != nil {
		return e.heavyFallback(c, rcPiece)
	}
	pRwalk := wr.verts
	ixR := e.indexWalk(pRwalk)
	splitR := e.splitSubtree(rPrime, ixR, nil)
	srcs3 := append(e.eligiblePieceVerts(c, splitR, pcVerts), pcVerts...)
	e.chargeBatch(c, len(srcs3))
	hit3, ok3 := e.D.EdgeToWalk(srcs3, pRwalk, true, &e.QStats)
	if !ok3 {
		return e.heavyFallback(c, rcPiece)
	}
	x3 := hit3.U
	q3 := e.T.LCA(xr, vH)
	vR := -1
	if q3 != vH && !ixR.onWalk(vH) {
		vR = t.ChildToward(q3, vH)
	}
	if vR < 0 || !t.IsAncestor(vR, x3) || t.IsAncestor(vH, x3) || x3 == vR || onPc(x3) {
		e.Stats.HeavyR++
		remaining := append(splitR, rest(rcPiece)...)
		return e.processComp(c, pRwalk, remaining)
	}

	// ---- Special case (τd = τp geometry). ----
	return e.heavySpecial(c, rcPiece, heavyCtx{
		vH: vH, vl: vl, vL: vL, rPrime: rPrime,
		pcIdx: pcIdx, pcVerts: pcVerts,
		xp: xp, yp: yp, x2: x2, y2: hit2.Z, xr: xr, yr: yr,
		pLwalk: pLwalk,
	})
}

// heavyCtx carries the scenario state into the special case.
type heavyCtx struct {
	vH, vl, vL, rPrime int
	pcIdx              int
	pcVerts            []int
	xp, yp             int
	x2, y2             int
	xr, yr             int
	pLwalk             []int
}

// heavyFallback abandons the scenario chain for the always-valid l walk.
func (e *Engine) heavyFallback(c *Comp, rcPiece int) ([]*Comp, error) {
	e.Stats.Fallbacks++
	return e.fallback(c, rcPiece)
}

// hangersOfWalk returns the roots of subtrees hanging from a monotone
// ascending walk (children of walk vertices that are off the walk).
func (e *Engine) hangersOfWalk(walk []int, ix *walkIndex) []int {
	var out []int
	t := e.T
	for _, v := range walk {
		for ch := t.FirstChild(v); ch != tree.None; ch = t.NextSibling(ch) {
			if !ix.onWalk(ch) {
				out = append(out, ch)
			}
		}
	}
	return out
}

// eligible filters subtree roots to those with at least one edge to the
// target vertex list (one batch of existence queries, executed together).
func (e *Engine) eligible(c *Comp, roots []int, target []int) []int {
	return e.eligibleGroups(c, [][]int{roots}, target)[0]
}

// eligibleGroups answers several independent eligibility families against
// one shared target in a single batch round — one physical pass for the
// streaming oracle, one batch call for D — returning the
// eligible roots of each group in input order.
func (e *Engine) eligibleGroups(c *Comp, groups [][]int, target []int) [][]int {
	total := 0
	var qs []dstruct.WalkQuery
	for _, roots := range groups {
		for _, r := range roots {
			sv := e.T.SubtreeVertices(r, nil)
			total += len(sv)
			qs = append(qs, dstruct.WalkQuery{Sources: sv, Walk: target, FromEnd: true})
		}
	}
	ans := e.D.EdgeToWalkBatch(qs, &e.QStats)
	out := make([][]int, len(groups))
	i := 0
	for gi, roots := range groups {
		for _, r := range roots {
			if ans[i].OK {
				out[gi] = append(out[gi], r)
			}
			i++
		}
	}
	if total > 0 {
		e.chargeBatch(c, total)
	}
	return out
}

// eligiblePieceVerts returns the vertices of the subtree pieces among
// pieces that have an edge to target.
func (e *Engine) eligiblePieceVerts(c *Comp, pieces []Piece, target []int) []int {
	var roots []int
	for _, p := range pieces {
		if !p.IsPath {
			roots = append(roots, p.Root)
		}
	}
	return e.subtreeVerts(e.eligible(c, roots, target))
}

// subtreeVerts flattens the vertex sets of the given subtree roots.
func (e *Engine) subtreeVerts(roots []int) []int {
	var out []int
	for _, r := range roots {
		out = e.T.SubtreeVertices(r, out)
	}
	return out
}

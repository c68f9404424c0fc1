package reroot

import (
	"fmt"

	"repro/internal/dstruct"
)

// disintegrate handles a component whose entry rc lies in a subtree piece τ
// that either forms the whole component (type C1) or is entered at its root
// (the Section 4.1 remark for type C2): walk from rc to v_H, after which
// every subtree of τ's remainder has size at most the phase threshold.
func (e *Engine) disintegrate(c *Comp, rcPiece int) ([]*Comp, error) {
	p := c.Pieces[rcPiece]
	thr := e.threshold(e.phaseOf(c))
	vH := e.findVH(p.Root, thr)
	vl := e.T.LCA(c.RC, vH)

	w := e.newWalk()
	w.ascend(c.RC, vl)
	w.descend(vl, vH)
	if w.err != nil {
		return nil, fmt.Errorf("disintegrate: %v", w.err)
	}
	ix := e.indexWalk(w.verts)
	remaining := e.splitSubtree(p.Root, ix, nil)
	for i, q := range c.Pieces {
		if i != rcPiece {
			remaining = append(remaining, q)
		}
	}
	return e.processComp(c, w.verts, remaining)
}

// pathHalve handles entry on the path piece p_c: walk from rc to the farther
// end; the residual path has at most half the length (Section 4.2).
func (e *Engine) pathHalve(c *Comp, rcPiece int) ([]*Comp, error) {
	p := c.Pieces[rcPiece]
	t := e.T
	dTop := t.Level(c.RC) - t.Level(p.Top)
	dBot := t.Level(p.Bot) - t.Level(c.RC)

	w := e.newWalk()
	var residual []Piece
	if dTop >= dBot {
		w.ascend(c.RC, p.Top)
		if dBot > 0 {
			residual = append(residual, PathPiece(t.ChildToward(c.RC, p.Bot), p.Bot))
		}
	} else {
		w.descend(c.RC, p.Bot)
		if dTop > 0 {
			residual = append(residual, PathPiece(p.Top, t.Parent[c.RC]))
		}
	}
	if w.err != nil {
		return nil, fmt.Errorf("pathHalve: %v", w.err)
	}
	for i, q := range c.Pieces {
		if i != rcPiece {
			residual = append(residual, q)
		}
	}
	return e.processComp(c, w.verts, residual)
}

// disconnect handles entry in a subtree τ that is not heavy (or whose entry
// lies inside T(v_H), the Section 4.3 remark): walk through τ into p_c at a
// vertex y chosen so that the subsequent path halving covers every τ→p_c
// edge, disconnecting τ's remainder from the residual path.
func (e *Engine) disconnect(c *Comp, rcPiece int) ([]*Comp, error) {
	p := c.Pieces[rcPiece]
	t := e.T
	pcIdx := -1
	for i, q := range c.Pieces {
		if q.IsPath {
			pcIdx = i
			break
		}
	}
	if pcIdx < 0 {
		return nil, fmt.Errorf("disconnect: no path piece in component")
	}
	pc := c.Pieces[pcIdx]
	pcVerts := pc.vertices(t, nil) // bot..top order
	// upperHalf: the ceil(len/2) vertices nearest Top.
	half := (len(pcVerts) + 1) / 2
	upper := pcVerts[len(pcVerts)-half:]
	tauVerts := t.SubtreeVertices(p.Root, nil)

	// The upper-half probe and the two directed full-path queries are
	// independent: issue all three as one batch (one round instead of two
	// sequential probes), then select by the probe's outcome.
	e.chargeBatch(c, 3*len(tauVerts))
	ans := e.D.EdgeToWalkBatch([]dstruct.WalkQuery{
		{Sources: tauVerts, Walk: upper, FromEnd: true},
		{Sources: tauVerts, Walk: pcVerts, FromEnd: true},
		{Sources: tauVerts, Walk: pcVerts, FromEnd: false},
	}, &e.QStats)
	var x, y int
	var coverDown bool // after entering pc at y, traverse toward Bot?
	if ans[0].OK {
		// τ reaches the upper half: enter at the highest τ→pc edge and
		// sweep down to Bot, covering every (deeper) τ→pc edge. pcVerts is
		// bot..top order, so "nearest top" is fromEnd.
		if !ans[1].OK {
			return nil, fmt.Errorf("disconnect: τ lost its edge to pc")
		}
		x, y, coverDown = ans[1].Hit.U, ans[1].Hit.Z, true
	} else {
		// All τ→pc edges in the lower half: enter at the lowest and sweep
		// up to Top.
		if !ans[2].OK {
			return nil, fmt.Errorf("disconnect: τ has no edge to pc")
		}
		x, y, coverDown = ans[2].Hit.U, ans[2].Hit.Z, false
	}

	// Walk: rc → x within τ, hop to y, then sweep pc on the side holding
	// all τ→pc edges (which is also the longer side, halving the residual).
	vl := e.T.LCA(c.RC, x)
	w := e.newWalk()
	w.ascend(c.RC, vl)
	w.descend(vl, x)
	w.hop(y)
	var residual []Piece
	if coverDown {
		w.descend(y, pc.Bot)
		if y != pc.Top {
			residual = append(residual, PathPiece(pc.Top, t.Parent[y]))
		}
	} else {
		w.ascend(y, pc.Top)
		if y != pc.Bot {
			residual = append(residual, PathPiece(t.ChildToward(y, pc.Bot), pc.Bot))
		}
	}
	if w.err != nil {
		return nil, fmt.Errorf("disconnect: %v", w.err)
	}
	ix := e.indexWalk(w.verts)
	remaining := e.splitSubtree(p.Root, ix, residual)
	for i, q := range c.Pieces {
		if i != rcPiece && i != pcIdx {
			remaining = append(remaining, q)
		}
	}
	return e.processComp(c, w.verts, remaining)
}

// fallback consumes the entry piece entirely with an always-valid walk:
// to the root of the entry subtree (l-shaped) or across the entry path.
// Used for components that have lost the C1/C2 invariant and for heavy
// scenarios whose preconditions failed; correctness is unconditional, only
// the round bound degrades.
func (e *Engine) fallback(c *Comp, rcPiece int) ([]*Comp, error) {
	p := c.Pieces[rcPiece]
	if p.IsPath {
		return e.pathHalve(c, rcPiece)
	}
	w := e.newWalk()
	w.ascend(c.RC, p.Root)
	if w.err != nil {
		return nil, fmt.Errorf("fallback: %v", w.err)
	}
	ix := e.indexWalk(w.verts)
	remaining := e.splitSubtree(p.Root, ix, nil)
	for i, q := range c.Pieces {
		if i != rcPiece {
			remaining = append(remaining, q)
		}
	}
	return e.processComp(c, w.verts, remaining)
}

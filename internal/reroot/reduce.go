package reroot

import (
	"fmt"
	"time"

	"repro/internal/dstruct"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/tree"
)

// Step is one subtree relocation of the Section 3 reduction. With
// Root == tree.None, T(Sub) is hung under Parent unchanged (Parent ==
// tree.None detaches Sub from the tree); otherwise T(Sub) is rerooted at
// Root and hung under Parent. Every step the Planner makes keeps the tree
// edges inside T(Sub) in the graph, and every other graph edge leaving
// T(Sub) ends at Parent or above it; the SubtreeDFS executor relies on
// both.
type Step struct{ Sub, Root, Parent int }

// Plan is the reduction of one update: the steps to run on an Engine, in
// order, and the oracle query rounds (0 or 1) spent while planning. An
// empty plan leaves the tree unchanged (a back-edge insert or delete).
type Plan struct {
	Steps  []Step
	Rounds int
}

// Run performs the plan's steps on e. A non-nil spent accumulates the time
// of every Reroot call.
func (p Plan) Run(e *Engine, spent *time.Duration) error {
	for _, s := range p.Steps {
		if s.Root == tree.None {
			e.SetParent(s.Sub, s.Parent)
			continue
		}
		var t0 time.Time
		if spent != nil {
			t0 = time.Now()
		}
		err := e.Reroot(s.Sub, s.Root, s.Parent)
		if spent != nil {
			*spent += time.Since(t0)
		}
		if err != nil {
			return fmt.Errorf("subtree %d: %w", s.Sub, err)
		}
	}
	return nil
}

// Planner reduces one update to independent reroots of disjoint subtrees
// (Section 3): updating the DFS tree of G becomes rerooting subtrees of it
// and hanging them elsewhere. Every maintainer shares this reduction; only
// the oracle answering its queries and the bookkeeping around it differ.
type Planner struct {
	t  *tree.Tree
	d  Oracle            // nil: deepest edges come from g's rows (deepestEdge)
	g  *graph.Persistent // the updated graph, read only when d is nil
	m  *pram.Machine
	st *dstruct.Stats
}

// NewPlanner returns a planner for one update. It reads only the tree t
// before the update and the oracle d, which answers queries on the graph
// after the update. m is charged for the deepest-edge batch; st, when
// non-nil, accumulates that batch's search effort.
func NewPlanner(t *tree.Tree, d Oracle, m *pram.Machine, st *dstruct.Stats) Planner {
	return Planner{t: t, d: d, m: m, st: st}
}

// NewRowPlanner returns a planner that asks no oracle: each deepest-edge
// query walks up from low through the rows of g, the graph after the update,
// and falls back to scanning the rows of the subtree's pre-order window when
// the walk costs more (see deepestEdge). Its plans equal NewPlanner's with a
// D built on (g, t), and the machine is charged the same batch.
func NewRowPlanner(t *tree.Tree, g *graph.Persistent, m *pram.Machine) Planner {
	return Planner{t: t, g: g, m: m}
}

// InsertEdge reduces inserting (u,v), case (ii): a back edge leaves the
// tree unchanged; otherwise, with w = LCA(u,v), the child subtree of w
// containing v is rerooted at v and hung from u. w = pseudo root covers
// merging two components. The child of w is found by the parent walk from
// v that ChildToward(w, v) makes (see childBelowLCA), so no LCA index is
// built.
func (p Planner) InsertEdge(u, v int) Plan {
	if p.t.IsAncestor(u, v) || p.t.IsAncestor(v, u) {
		return Plan{}
	}
	return Plan{Steps: []Step{{Sub: p.childBelowLCA(v, u), Root: v, Parent: u}}}
}

// childBelowLCA returns the child of LCA(v, u) whose subtree holds v, where
// v is not an ancestor of u: the highest ancestor of v whose parent is not
// yet an ancestor of u. It walks parent pointers up from v, as many steps
// as ChildToward(LCA(v, u), v) would.
func (p Planner) childBelowLCA(v, u int) int {
	x := v
	for !p.t.IsAncestor(p.t.Parent[x], u) {
		x = p.t.Parent[x]
	}
	return x
}

// DeleteEdge reduces deleting the graph edge (u,v), case (i): a back edge
// leaves the tree unchanged; deleting tree edge (parent u, child v)
// reroots T(v) at the inside end of its deepest edge to path(u, root of
// u's component), or hangs T(v) under the pseudo root if the component
// split.
func (p Planner) DeleteEdge(u, v int) Plan {
	if p.t.Parent[u] == v {
		u, v = v, u // orient: u = parent
	}
	if p.t.Parent[v] != u {
		return Plan{}
	}
	return p.rehang(make([]Step, 0, 1), []int{v}, u)
}

// DeleteVertex reduces deleting u, case (iii): u leaves the tree and every
// child subtree T(v_i) is rerooted through its deepest edge to
// path(parent(u), component root), or becomes a component of its own.
func (p Planner) DeleteVertex(u int) Plan {
	var children []int
	for c := p.t.FirstChild(u); c != tree.None; c = p.t.NextSibling(c) {
		children = append(children, c)
	}
	steps := make([]Step, 1, len(children)+1)
	steps[0] = Step{Sub: u, Root: tree.None, Parent: tree.None}
	pu := p.t.Parent[u]
	if pu != p.t.Root {
		return p.rehang(steps, children, pu)
	}
	// u was a component root: no path above to reattach through.
	for _, vi := range children {
		steps = append(steps, Step{Sub: vi, Root: tree.None, Parent: p.t.Root})
	}
	return Plan{Steps: steps}
}

// InsertVertex reduces inserting the new vertex u with the given
// neighbors, case (iv): u becomes a child of one neighbor v_j; every
// other neighbor v_i off path(v_j, root) pulls its hanging subtree
// T(v'_i) to be rerooted at v_i and hung from u. Neighbours in the same
// hanging subtree share one reroot (the extra edges become back edges).
func (p Planner) InsertVertex(u int, neighbors []int) Plan {
	if len(neighbors) == 0 {
		return Plan{Steps: []Step{{Sub: u, Root: tree.None, Parent: p.t.Root}}}
	}
	// Arbitrary choice of v_j: the shallowest neighbor, which minimizes
	// the number of hanging subtrees to reroot.
	vj := neighbors[0]
	for _, v := range neighbors[1:] {
		if p.t.Level(v) < p.t.Level(vj) {
			vj = v
		}
	}
	steps := []Step{{Sub: u, Root: tree.None, Parent: vj}}
	seen := make(map[int]bool)
	for _, vi := range neighbors {
		if vi == vj {
			continue
		}
		if p.t.IsAncestor(vi, vj) {
			continue // vi on path(vj, root): (u, vi) is a back edge
		}
		vPrime := p.childBelowLCA(vi, vj)
		if seen[vPrime] {
			continue // same subtree already rerooted; extra edge is a back edge
		}
		seen[vPrime] = true
		steps = append(steps, Step{Sub: vPrime, Root: vi, Parent: u})
	}
	return Plan{Steps: steps}
}

// rehang appends to steps one step per subtree in subs: T(sub) is rerooted
// at the inside end of its deepest edge to path(low, root of low's
// component) and hung from the edge's path end, or hung under the pseudo
// root when no such edge exists. The queries share one path and are
// independent, so they form one batch — one query round — with each
// subtree charged its own O(log n)-depth step.
func (p Planner) rehang(steps []Step, subs []int, low int) Plan {
	if len(subs) == 0 {
		return Plan{Steps: steps}
	}
	lg := pram.Log2Ceil(p.t.Live() + 1)
	for _, sub := range subs {
		p.m.Charge(lg, int64(p.t.Size(sub))*lg)
	}
	var answers []dstruct.WalkAnswer
	if p.d == nil {
		answers = make([]dstruct.WalkAnswer, len(subs))
		for i, sub := range subs {
			answers[i] = p.deepestEdge(sub, low, p.t.Size(sub))
		}
	} else {
		walk := p.t.PathUp(low, p.t.AncestorAtLevel(low, 1)) // "deepest" = nearest low
		qs := make([]dstruct.WalkQuery, len(subs))
		for i, sub := range subs {
			qs[i] = dstruct.WalkQuery{Sources: p.t.SubtreeVertices(sub, nil), Walk: walk, FromEnd: false}
		}
		answers = p.d.EdgeToWalkBatch(qs, p.st)
	}
	for i, ans := range answers {
		if ans.OK {
			steps = append(steps, Step{Sub: subs[i], Root: ans.Hit.U, Parent: ans.Hit.Z})
		} else {
			steps = append(steps, Step{Sub: subs[i], Root: tree.None, Parent: p.t.Root})
		}
	}
	return Plan{Steps: steps, Rounds: 1}
}

// deepestEdge answers rehang's query for T(sub) without an oracle. It walks
// up from low: at each z on path(low, level-1 ancestor of low), nearest low
// first, the first neighbour of z in g's row (rows are sorted by vertex ID)
// that lies in T(sub) is the smallest source U for that z, and the first z
// with one is the deepest. That is D's answer to the same walk query: the
// smallest walk position level(low) − level(z), then the smallest U. A walk
// that passes the level-1 ancestor finds no edge: the component split.
//
// The walk counts one unit per path vertex and per entry of its row, a row
// at a time before reading it. Once the count exceeds budget it stops and
// answers by scanning T(sub)'s rows instead (scanRows). rehang passes
// |T(sub)|, so a query costs at most that plus the scan's O(|T(sub)| +
// m(T(sub))), the cost of the subtree search that follows, while a hit near
// low costs a few entries however large T(sub) is.
func (p Planner) deepestEdge(sub, low, budget int) dstruct.WalkAnswer {
	t := p.t
	spent := 0
	for z := low; t.Level(z) >= 1; z = t.Parent[z] {
		row := p.g.Row(z)
		if spent += 1 + len(row); spent > budget {
			return p.scanRows(sub, low)
		}
		for _, w := range row {
			if u := int(w); t.Present(u) && t.IsAncestor(sub, u) {
				return dstruct.WalkAnswer{Hit: dstruct.Hit{U: u, Z: z, ZPos: t.Level(low) - t.Level(z)}, OK: true}
			}
		}
	}
	return dstruct.WalkAnswer{}
}

// scanRows answers deepestEdge's query by scanning the rows of T(sub)'s
// pre-order window in the updated graph: it keeps the neighbours z on
// path(low, level-1 ancestor of low) — z a tree vertex at level ≥ 1 that is
// an ancestor of low — and picks the largest level(z), then the smallest
// source U. It costs O(|T(sub)| + m(T(sub))).
func (p Planner) scanRows(sub, low int) dstruct.WalkAnswer {
	t := p.t
	var best dstruct.WalkAnswer
	bestLevel := 0
	for _, u := range t.PreOrder()[t.Pre(sub) : t.Pre(sub)+t.Size(sub)] {
		for _, w := range p.g.Row(u) {
			z := int(w)
			if !t.Present(z) {
				continue
			}
			lz := t.Level(z)
			if lz < 1 || lz < bestLevel || (best.OK && lz == bestLevel && u > best.Hit.U) || !t.IsAncestor(z, low) {
				continue
			}
			bestLevel = lz
			best = dstruct.WalkAnswer{Hit: dstruct.Hit{U: u, Z: z, ZPos: t.Level(low) - lz}, OK: true}
		}
	}
	return best
}

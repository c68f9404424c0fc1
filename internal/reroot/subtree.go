package reroot

import "fmt"

// Executor selects how an Engine runs the rerooting steps of a Plan.
// Hang-only steps (Step.Root == tree.None) are a parent assignment under
// every executor; the executors differ only in how they reroot T(Sub) at
// Root.
type Executor int

const (
	// SubtreeDFS reroots T(Sub) with one static depth-first search of the
	// induced subgraph G[T(Sub)] from Root, over the rows of the updated
	// graph (Engine.G). It is valid because every edge leaving T(Sub) ends
	// at an ancestor of the step's Parent (the Section 3 reduction), so any
	// DFS tree of G[T(Sub)] hung under Parent keeps every edge a back edge.
	// It costs O(|T(Sub)| + m(T(Sub))) and issues no oracle query. The
	// search visits the old parent first, then the old children in ID
	// order, then the rest of the row, so every part of the subtree the
	// reroot does not have to restructure keeps its old parents.
	SubtreeDFS Executor = iota
	// Parallel runs the paper's Section 4 phase/stage scheduler: polylog
	// rounds of batched oracle queries, charged to the PRAM model.
	Parallel
	// Sequential consumes every component with the plain walk to the root
	// of its entry subtree: the sequential rerooting of Baswana et al.
	// (SODA 2016) that the paper parallelizes.
	Sequential
)

// dfsFrame is one vertex on the subtree search's stack, in int32 halves
// like the graph's rows: the stack is as deep as the rerooted subtree and
// lives on in the maintainer's Scratch. next enumerates the vertex's
// candidates in visit order: 0 is its old parent; 1..size-1 are offsets
// into its old pre-order window, where each old child sits at the offset
// just past its previous sibling's subtree; and size+j is the j-th entry
// of its row.
type dfsFrame struct{ v, next int32 }

// traverse reroots T(sub) at root by a depth-first search of G[T(sub)] and
// hangs root under attach. Membership is the old-tree ancestry test, so
// the search never leaves the subtree. The machine is charged the search
// itself — depth = work = vertices reached + row entries scanned — and the
// step counts as one traversal in one round.
func (e *Engine) traverse(sub, root, attach int) error {
	if e.G == nil {
		return fmt.Errorf("reroot: subtree DFS of %d without a graph", sub)
	}
	e.parent[root] = attach
	e.visited[root] = true
	reached, scanned := 1, 0
	stack := append(e.scratch.stack[:0], dfsFrame{v: int32(root)})
	for len(stack) > 0 {
		w, n := e.nextVertex(&stack[len(stack)-1], sub)
		scanned += n
		if w < 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		e.visited[w] = true
		e.parent[w] = int(stack[len(stack)-1].v)
		reached++
		stack = append(stack, dfsFrame{v: int32(w)})
	}
	e.scratch.stack = stack
	if size := e.T.Size(sub); reached != size {
		return fmt.Errorf("reroot: DFS from %d reached %d of the %d vertices of T(%d)", root, reached, size, sub)
	}
	k := int64(reached + scanned)
	e.M.Charge(k, k)
	e.Stats.TotalTraversal++
	e.Stats.Rounds = max(e.Stats.Rounds, 1)
	return nil
}

// nextVertex advances f to its next unvisited candidate in T(sub) and
// returns it (-1 once f is exhausted) with the number of row entries it
// scanned. The old tree edges inside T(sub) are edges of the updated graph
// (the reduction deletes only edges leaving the subtrees it reroots), so
// the old parent and children need no row lookup: the children are read
// off the old pre-order window of v, and the row is read at most once per
// call.
func (e *Engine) nextVertex(f *dfsFrame, sub int) (int, int) {
	t, v := e.T, int(f.v)
	window := t.PreOrder()[t.Pre(v):]
	size := int32(t.Size(v))
	var row []int32
	scanned := 0
	for {
		var w int
		switch i := f.next; {
		case i == 0:
			f.next = 1
			if v == sub {
				continue
			}
			w = t.Parent[v]
		case i < size:
			w = window[i]
			f.next += int32(t.Size(w))
		default:
			if row == nil {
				row = e.G.Row(v)
			}
			j := int(i - size)
			if j >= len(row) {
				return -1, scanned
			}
			f.next++
			scanned++
			w = int(row[j])
			if w >= t.N() || !t.IsAncestor(sub, w) {
				continue
			}
		}
		if !e.visited[w] {
			return w, scanned
		}
	}
}

// Package faulttol implements the paper's fault-tolerant DFS (Theorem 14):
// an undirected graph is preprocessed once into a structure of size O(m)
// — its DFS tree T₀ and the data structure D built on T₀ — after which a
// DFS tree of the graph under any batch of k updates can be computed
// without ever rebuilding D. The i-th update of a batch reroots subtrees of
// T*_{i-1}; every query path of T*_{i-1} decomposes into ancestor-descendant
// fragments of T₀ (Theorem 9), which is what makes the original D usable.
//
// Apply is read-only with respect to the preprocessed state: batches are
// independent, matching the fault-tolerant model where each failure set is
// hypothetical.
package faulttol

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/reroot"
	"repro/internal/tree"
)

// FaultTolerant is the preprocessed structure.
type FaultTolerant struct {
	g0     *graph.Persistent // immutable; shared with every session zero-copy
	dd0    *core.DynamicDFS  // holds T0 and D; never mutated after preprocessing
	m      *pram.Machine
	maxUpd int
}

// Result reports the outcome of one batch.
type Result struct {
	Tree       *tree.Tree // DFS tree of the updated graph (pseudo-rooted)
	PseudoRoot int
	Graph      *graph.Persistent // the updated graph (immutable version)
	Stats      reroot.Stats      // aggregated over the batch
	// Fragments is the total number of base-tree fragments walk queries
	// decomposed into during the batch (the paper's O(log^{2(i-1)} n) per
	// query); FragQueries is the number of walk queries.
	Fragments   int64
	FragQueries int64
}

// Preprocess builds the structure. maxUpdates sizes the vertex-ID headroom
// for inserted vertices (the paper's k ≤ log n; pass 0 for a default of 64).
func Preprocess(g *graph.Persistent, maxUpdates int) *FaultTolerant {
	if maxUpdates <= 0 {
		maxUpdates = 64
	}
	m := pram.NewMachine(core.ModelProcs(g))
	dd := core.New(g, core.Options{RebuildD: false, Headroom: maxUpdates + 1, Machine: m, Executor: core.Parallel})
	return &FaultTolerant{g0: dd.Graph(), dd0: dd, m: m, maxUpd: maxUpdates}
}

// SizeWords returns the preprocessed structure's size in words (the O(m)
// bound of Theorem 14: D plus the tree arrays).
func (ft *FaultTolerant) SizeWords() int64 {
	return ft.dd0.D().SizeWords() + int64(2*ft.dd0.Tree().N())
}

// Tree returns the preprocessed DFS tree T₀.
func (ft *FaultTolerant) Tree() *tree.Tree { return ft.dd0.Tree() }

// PseudoRoot returns the pseudo root ID.
func (ft *FaultTolerant) PseudoRoot() int { return ft.dd0.PseudoRoot() }

// Machine returns the accounting machine (shared across batches).
func (ft *FaultTolerant) Machine() *pram.Machine { return ft.m }

// Apply computes the DFS tree of the graph under the given update batch,
// using only the original D (patched, then reset). The preprocessed state
// is unchanged afterwards.
func (ft *FaultTolerant) Apply(updates []core.Update) (*Result, error) {
	if len(updates) > ft.maxUpd {
		return nil, fmt.Errorf("faulttol: batch of %d exceeds preprocessed maximum %d",
			len(updates), ft.maxUpd)
	}
	d := ft.dd0.D()
	defer d.ResetPatches()

	// The persistent graph makes the session start free: it shares g0
	// zero-copy and path-copies only what its updates touch, so a batch no
	// longer pays an O(n+m) clone before its first update.
	session := core.NewFromState(ft.g0, ft.dd0.Tree(), d, ft.dd0.PseudoRoot(), core.Options{Machine: ft.m, Executor: core.Parallel})
	res := &Result{PseudoRoot: ft.dd0.PseudoRoot()}
	for i, u := range updates {
		if _, err := session.Apply(u); err != nil {
			return nil, fmt.Errorf("faulttol: update %d (%v): %w", i, u.Kind, err)
		}
		res.Stats.Add(session.LastStats())
	}
	res.Tree = session.Tree()
	res.Graph = session.Graph()
	// The session threads per-call Stats accumulators through every D query
	// (D itself is never mutated by queries), so the batch's fragment counts
	// are simply its rolled-up totals — no before/after delta needed.
	qs := session.QueryStats()
	res.Fragments = qs.RunsSplit
	res.FragQueries = qs.WalkQueries
	return res, nil
}

// NewVertexIDs returns the vertex IDs a batch's InsertVertex updates will
// receive, in order, given the preprocessed graph (useful for composing
// batches that reference inserted vertices).
func (ft *FaultTolerant) NewVertexIDs(count int) []int {
	ids := make([]int, count)
	base := ft.g0.NumVertexSlots()
	for i := range ids {
		ids[i] = base + i
	}
	return ids
}

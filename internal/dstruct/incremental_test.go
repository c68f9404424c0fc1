package dstruct

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
)

// TestPatchDeleteVertexRetiresState pins the patch-state leak fix: deleting
// a patch vertex must remove it from the patch-vertex set and drop its
// emptied inserted-edge rows, so a later insertion reusing the slot starts
// clean and the patch maps do not grow without bound.
func TestPatchDeleteVertexRetiresState(t *testing.T) {
	g := graph.Path(6)
	tr := baseline.StaticDFS(g)
	d := Build(g, tr, nil)
	base := d.SizeWords()

	v := g.NumVertexSlots() // simulate the slot an insertion would take
	d.PatchInsertVertex(v, []int{1, 3})
	if !d.IsPatchVertex(v) {
		t.Fatal("inserted vertex not a patch vertex")
	}
	d.PatchDeleteVertex(v, []int{1, 3})
	if d.IsPatchVertex(v) {
		t.Fatal("deleted vertex still reported as a patch vertex")
	}
	if len(d.inserted) != 0 {
		t.Fatalf("%d inserted rows linger after the symmetric insert+delete", len(d.inserted))
	}
	if len(d.patchVerts) != 0 {
		t.Fatalf("%d patch vertices linger", len(d.patchVerts))
	}
	if got := d.SizeWords(); got != base {
		t.Fatalf("SizeWords=%d after insert+delete, want the as-built %d", got, base)
	}
	// A fresh insertion reusing the slot starts from clean state.
	d.PatchInsertVertex(v, []int{0})
	if got := len(d.inserted[v]); got != 1 {
		t.Fatalf("reused slot has %d inserted entries, want 1", got)
	}
}

// TestPatchDeleteEdgeDropsEmptiedRow checks the same hygiene on the plain
// edge path: deleting a previously patched-in edge must not leave behind an
// empty inserted row (queries treat a non-empty inserted map as "patched").
func TestPatchDeleteEdgeDropsEmptiedRow(t *testing.T) {
	g := graph.Path(6)
	d := Build(g, baseline.StaticDFS(g), nil)
	d.PatchInsertEdge(0, 3)
	d.PatchDeleteEdge(0, 3)
	if len(d.inserted) != 0 {
		t.Fatalf("%d inserted rows linger after insert+delete of one edge", len(d.inserted))
	}
}

// TestResetPatchesReusesMaps pins the allocation fix: ResetPatches clears
// and reuses the three patch maps (as Rebuild does) instead of reallocating
// them per batch.
func TestResetPatchesReusesMaps(t *testing.T) {
	g := graph.Path(6)
	d := Build(g, baseline.StaticDFS(g), nil)
	d.PatchInsertEdge(0, 2)
	d.PatchDeleteEdge(1, 2)
	d.PatchInsertVertex(g.NumVertexSlots(), []int{4})
	ins, del, pv := d.inserted, d.deletedE, d.patchVerts
	d.ResetPatches()
	if d.NumPatches() != 0 || len(d.inserted) != 0 || len(d.deletedE) != 0 || len(d.patchVerts) != 0 {
		t.Fatal("ResetPatches left patch state behind")
	}
	// Same map headers: a new patch lands in the original references.
	d.PatchInsertEdge(0, 3)
	d.PatchDeleteEdge(3, 4)
	d.PatchInsertVertex(g.NumVertexSlots(), []int{5})
	if len(ins) == 0 || len(del) == 0 || len(pv) == 0 {
		t.Fatal("ResetPatches reallocated the patch maps instead of reusing them")
	}
}

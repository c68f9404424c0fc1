package wal

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tree"
)

// The golden frames below pin the on-disk format byte for byte: update-log
// frames, route-log frames and checkpoint files. A change to any of them is
// a format change that existing WAL directories cannot recover from.
var (
	goldenRecord = Record{Graph: "g/1", Seq: 300, Update: core.Update{
		Kind: core.InsertVertex, U: 7, V: -1, Neighbors: []int{0, 3, 130},
	}}
	goldenRecordHex = "0f000000" + "a6e3ac6c" + "0103672f31ac0202" + "0e010300068402"

	goldenRoutes = []RouteRecord{
		{Graph: "g/1", Shard: -1, Seq: 9},
		{Graph: "g/2", Shard: 70, Seq: 1 << 20},
	}
	goldenRoutesHex = []string{
		"07000000" + "3ec4d804" + "0103672f310109",
		"0a000000" + "9c3ec08b" + "0103672f328c01808040",
	}

	goldenCheckpointHex = "44465357434b5031" + "2a000000" + "864dd4f4" +
		"0b636b70742f676f6c64656e" + "2a" + "06" + "08" + "1f" +
		"05" + "020302020100" + "01030002040103000201" +
		"100002040201010101"
)

func decodeHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenCheckpoint is a small graph with a hole (slot 5) and two headroom
// slots (6, 7) below the pseudo root 8. Its tree is spelled out so the
// golden bytes do not depend on which DFS tree a maintainer would build.
func goldenCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	g := graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 1, V: 4}})
	g, err := g.DeleteVertex(5)
	if err != nil {
		t.Fatal(err)
	}
	const pseudo = 8
	parent := []int{pseudo, 0, 1, 2, 1, tree.None, tree.None, tree.None, tree.None}
	present := []bool{true, true, true, true, true, false, false, false, true}
	tr, err := tree.Build(pseudo, parent, present)
	if err != nil {
		t.Fatal(err)
	}
	return &Checkpoint{ID: "ckpt/golden", Seq: 42, Pseudo: pseudo, Graph: g, Tree: tr}
}

func TestGoldenRecordFrame(t *testing.T) {
	want := decodeHex(t, goldenRecordHex)
	if got := AppendEncode(nil, &goldenRecord); !reflect.DeepEqual(got, want) {
		t.Fatalf("record frame changed:\n got %x\nwant %x", got, want)
	}
	r, n, err := decodeFrame(want)
	if err != nil || n != len(want) || !reflect.DeepEqual(r, goldenRecord) {
		t.Fatalf("golden record decodes to %+v, %d, %v", r, n, err)
	}
}

func TestGoldenRouteFrames(t *testing.T) {
	var all []byte
	for i, r := range goldenRoutes {
		want := decodeHex(t, goldenRoutesHex[i])
		if got := appendRouteFrame(nil, &r); !reflect.DeepEqual(got, want) {
			t.Fatalf("route frame %d changed:\n got %x\nwant %x", i, got, want)
		}
		back, n, err := decodeRouteFrame(want)
		if err != nil || n != len(want) || back != r {
			t.Fatalf("golden route %d decodes to %+v, %d, %v", i, back, n, err)
		}
		all = append(all, want...)
	}
	// A compacted route log is exactly its records' frames.
	dir := t.TempDir()
	rl, _, err := OpenRoutes(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if err := rl.Compact(goldenRoutes); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, RoutesFile)); !reflect.DeepEqual(got, all) {
		t.Fatalf("compacted route log:\n got %x\nwant %x", got, all)
	}
}

func TestGoldenCheckpoint(t *testing.T) {
	want := decodeHex(t, goldenCheckpointHex)
	c := goldenCheckpoint(t)
	if got := c.Encode(); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint encoding changed:\n got %x\nwant %x", got, want)
	}
	back, err := DecodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != c.ID || back.Seq != c.Seq || back.Pseudo != c.Pseudo ||
		!reflect.DeepEqual(back.Tree.Parent, c.Tree.Parent) ||
		!reflect.DeepEqual(back.Graph.Edges(), c.Graph.Edges()) || back.Graph.IsVertex(5) {
		t.Fatalf("golden checkpoint decodes to different state: %+v", back)
	}
	// The checkpoint file is exactly the encoding.
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, c, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, ckptName(c.ID, c.Seq))); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint file:\n got %x\nwant %x", got, want)
	}
}

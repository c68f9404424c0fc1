package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func testRecords() []Record {
	return []Record{
		{Graph: "g1", Seq: 1, Update: core.Update{Kind: core.InsertEdge, U: 0, V: 1}},
		{Graph: "g1", Seq: 2, Update: core.Update{Kind: core.DeleteEdge, U: 1, V: 0}},
		{Graph: "", Seq: 3, Update: core.Update{Kind: core.DeleteVertex, U: 7}},
		{Graph: "other/graph\x00!", Seq: 1 << 40, Update: core.Update{
			Kind: core.InsertVertex, U: -1, V: -1, Neighbors: []int{3, 1, 4, 1, 5},
		}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	want := testRecords()
	for i := range want {
		buf = AppendEncode(buf, &want[i])
	}
	res := DecodeAll(buf)
	if !res.Clean || res.Err != nil {
		t.Fatalf("DecodeAll not clean: %+v", res)
	}
	if !reflect.DeepEqual(res.Records, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", res.Records, want)
	}
}

// TestDecodeAllTruncation checks the prefix guarantee under truncation:
// cutting the buffer at every possible byte position yields a clean decode
// of some prefix of the original records, never a different record.
func TestDecodeAllTruncation(t *testing.T) {
	want := testRecords()
	var buf []byte
	for i := range want {
		buf = AppendEncode(buf, &want[i])
	}
	for cut := 0; cut < len(buf); cut++ {
		res := DecodeAll(buf[:cut])
		if cut > 0 && res.Clean && len(res.Records) == len(want) {
			t.Fatalf("cut=%d: full decode of truncated buffer", cut)
		}
		for i, r := range res.Records {
			if !reflect.DeepEqual(r, want[i]) {
				t.Fatalf("cut=%d: record %d diverged: %+v != %+v", cut, i, r, want[i])
			}
		}
	}
}

// TestDecodeAllBitFlips is the corruption property test: flipping any
// single bit of the log yields either the original records (the flip
// landed past the decoded prefix — impossible here since every byte is
// load-bearing... except it can land in a record that still CRC-fails) or
// a strict prefix of them. Decoding must never produce a record sequence
// that is not a prefix of the original, and never panic.
func TestDecodeAllBitFlips(t *testing.T) {
	want := testRecords()
	var buf []byte
	for i := range want {
		buf = AppendEncode(buf, &want[i])
	}
	for pos := 0; pos < len(buf); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), buf...)
			mut[pos] ^= 1 << bit
			res := DecodeAll(mut)
			for i, r := range res.Records {
				if i >= len(want) || !reflect.DeepEqual(r, want[i]) {
					t.Fatalf("flip %d.%d: record %d is not the original prefix: %+v", pos, bit, i, r)
				}
			}
			if len(res.Records) < len(want) && res.Clean {
				// The flip erased a tail record without being reported:
				// possible only by shrinking a length prefix so the buffer
				// still parses cleanly. The CRC of the shortened frame must
				// then mismatch, so a clean short decode is a bug.
				t.Fatalf("flip %d.%d: silently dropped records (%d < %d)", pos, bit, len(res.Records), len(want))
			}
		}
	}
}

func TestLogAppendScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	lg, err := OpenLog(path, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords()
	for i := range want {
		if err := lg.Append(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Commit(); err != nil {
		t.Fatal(err)
	}
	st := lg.Stats()
	if st.Appends != uint64(len(want)) || st.Syncs != 1 {
		t.Fatalf("stats = %+v, want %d appends / 1 sync", st, len(want))
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || !reflect.DeepEqual(res.Records, want) {
		t.Fatalf("scan mismatch: %+v", res)
	}
}

func TestLogSyncAlways(t *testing.T) {
	lg, err := OpenLog(filepath.Join(t.TempDir(), "x.wal"), Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	recs := testRecords()
	for i := range recs {
		if err := lg.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := lg.Stats().Syncs; got != uint64(len(recs)) {
		t.Fatalf("SyncAlways issued %d syncs, want %d", got, len(recs))
	}
}

func TestLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	lg, err := OpenLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	r := testRecords()[0]
	if err := lg.Append(&r); err != nil {
		t.Fatal(err)
	}
	if err := lg.Reset(); err != nil {
		t.Fatal(err)
	}
	if st, _ := os.Stat(path); st.Size() != 0 {
		t.Fatalf("log not truncated: %d bytes", st.Size())
	}
	// Appends after a reset land at the new start of file.
	if err := lg.Append(&r); err != nil {
		t.Fatal(err)
	}
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	res, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || len(res.Records) != 1 {
		t.Fatalf("post-reset scan: %+v", res)
	}
}

// TestAppendRejectsOversizedFrame: a frame the decoder would reject as
// corrupt must never be appended (and thus never acknowledged) — the log
// fail-stops before any byte reaches the file.
func TestAppendRejectsOversizedFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	lg, err := OpenLog(path, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	ok := testRecords()[0]
	if err := lg.Append(&ok); err != nil {
		t.Fatal(err)
	}
	big := Record{Graph: strings.Repeat("g", maxFrame), Seq: 2,
		Update: core.Update{Kind: core.InsertEdge, U: 0, V: 1}}
	if err := lg.Append(&big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append = %v, want ErrTooLarge", err)
	}
	// Sticky fail-stop: the write path is dead, like any other append error.
	if err := lg.Append(&ok); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after oversized reject = %v, want ErrLogFailed", err)
	}
	// Nothing of the oversized frame reached the file: the log is clean and
	// holds exactly the pre-failure prefix.
	if err := lg.Sync(); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("sync after fail-stop = %v, want ErrLogFailed", err)
	}
	res, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || len(res.Records) != 1 || !reflect.DeepEqual(res.Records[0], ok) {
		t.Fatalf("oversized frame leaked into the file: %+v", res)
	}
}

func TestLockDirExclusive(t *testing.T) {
	dir := t.TempDir()
	l1, err := LockDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LockDir(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second LockDir = %v, want ErrLocked", err)
	}
	if err := l1.Release(); err != nil {
		t.Fatal(err)
	}
	l2, err := LockDir(dir)
	if err != nil {
		t.Fatalf("relock after release: %v", err)
	}
	if err := l2.Release(); err != nil {
		t.Fatal(err)
	}
	// Release is idempotent and nil-safe.
	if err := l2.Release(); err != nil {
		t.Fatal(err)
	}
	if err := (*DirLock)(nil).Release(); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorFailWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	inj := &Injector{FailAt: 3, Mode: InjectFailWrite}
	lg, err := OpenLog(path, Options{Policy: SyncAlways, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	recs := testRecords()
	var failed error
	n := 0
	for i := range recs {
		if failed = lg.Append(&recs[i]); failed != nil {
			break
		}
		n++
	}
	if failed == nil || !errors.Is(failed, ErrInjected) {
		t.Fatalf("expected injected failure, got %v after %d appends", failed, n)
	}
	if !inj.Tripped() {
		t.Fatal("injector did not trip")
	}
	// Sticky fail-stop: later appends fail with ErrLogFailed.
	if err := lg.Append(&recs[0]); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after failure = %v, want ErrLogFailed", err)
	}
	// The on-disk prefix is exactly the n records appended before failure.
	res, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != n || !reflect.DeepEqual(res.Records, recs[:n]) {
		t.Fatalf("disk has %d records, want the %d-record prefix", len(res.Records), n)
	}
}

func TestInjectorShortWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	inj := &Injector{FailAt: 2, Mode: InjectShortWrite}
	lg, err := OpenLog(path, Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	recs := testRecords()
	if err := lg.Append(&recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(&recs[1]); !errors.Is(err, ErrInjected) {
		t.Fatalf("short write returned %v", err)
	}
	// The scan tolerates the torn record and still yields the clean prefix.
	res, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Fatal("scan of torn log reported clean")
	}
	if len(res.Records) != 1 || !reflect.DeepEqual(res.Records[0], recs[0]) {
		t.Fatalf("torn scan prefix = %+v", res.Records)
	}
}

func TestInjectorFailSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	inj := &Injector{FailAt: 1, Mode: InjectFailSync}
	lg, err := OpenLog(path, Options{Policy: SyncBatch, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	r := testRecords()[0]
	// Writes pass (FailSync never trips on writes)...
	if err := lg.Append(&r); err != nil {
		t.Fatal(err)
	}
	// ...but the commit's fsync fails.
	if err := lg.Commit(); !errors.Is(err, ErrInjected) {
		t.Fatalf("commit = %v, want injected sync failure", err)
	}
	if err := lg.Append(&r); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after sync failure = %v, want ErrLogFailed", err)
	}
}

func buildCheckpoint(t testing.TB) *Checkpoint {
	t.Helper()
	g := graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 1, V: 4}})
	g, err := g.DeleteVertex(5) // a hole in the slot space
	if err != nil {
		t.Fatal(err)
	}
	dd := core.New(g, core.Options{})
	return &Checkpoint{
		ID:     "ckpt/test",
		Seq:    42,
		Pseudo: dd.PseudoRoot(),
		Graph:  dd.Frozen(),
		Tree:   dd.Tree(),
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := buildCheckpoint(t)
	got, err := DecodeCheckpoint(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != c.ID || got.Seq != c.Seq || got.Pseudo != c.Pseudo {
		t.Fatalf("header mismatch: %+v vs %+v", got, c)
	}
	if !reflect.DeepEqual(got.Tree.Parent, c.Tree.Parent) || got.Tree.Root != c.Tree.Root {
		t.Fatal("tree mismatch after round trip")
	}
	if got.Graph.NumEdges() != c.Graph.NumEdges() || got.Graph.NumVertexSlots() != c.Graph.NumVertexSlots() {
		t.Fatal("graph shape mismatch after round trip")
	}
	for v := 0; v < c.Graph.NumVertexSlots(); v++ {
		if got.Graph.IsVertex(v) != c.Graph.IsVertex(v) {
			t.Fatalf("liveness mismatch at %d", v)
		}
		if !reflect.DeepEqual(got.Graph.Neighbors(v, nil), c.Graph.Neighbors(v, nil)) {
			t.Fatalf("row %d mismatch", v)
		}
	}
}

// TestCheckpointCorruption flips each byte of an encoded checkpoint and
// requires a loud decode failure or a byte-identical re-encode — a corrupt
// checkpoint must never silently decode to different state.
func TestCheckpointCorruption(t *testing.T) {
	c := buildCheckpoint(t)
	data := c.Encode()
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x55
		got, err := DecodeCheckpoint(mut)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("pos %d: error does not wrap ErrCorrupt: %v", pos, err)
			}
			continue
		}
		if !bytes.Equal(got.Encode(), data) {
			t.Fatalf("pos %d: corrupt checkpoint decoded to different state", pos)
		}
	}
}

// TestCheckpointHostileHeaderCounts feeds CRC-valid blobs whose slot or
// pseudo-root count promises far more entries than the payload holds. Each
// must fail with ErrCorrupt before allocating per the count.
func TestCheckpointHostileHeaderCounts(t *testing.T) {
	for name, payload := range map[string][]byte{
		// ID "", seq 0, slots 2^30.
		"slots=2^30": binary.AppendUvarint([]byte{0, 0}, 1<<30),
		// ID "", seq 0, slots 0, pseudo 2^31, m 0.
		"pseudo=2^31": append(binary.AppendUvarint([]byte{0, 0, 0}, 1<<31), 0),
	} {
		if _, err := DecodeCheckpoint(frameCheckpoint(payload)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decode = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestWriteLoadCheckpoints(t *testing.T) {
	dir := t.TempDir()
	c := buildCheckpoint(t)
	if err := WriteCheckpoint(dir, c, nil); err != nil {
		t.Fatal(err)
	}
	// A newer checkpoint supersedes (and deletes) the older file.
	c2 := *c
	c2.Seq = 43
	if err := WriteCheckpoint(dir, &c2, nil); err != nil {
		t.Fatal(err)
	}
	names := readDirNames(dir)
	if len(names) != 1 || names[0] != ckptName(c.ID, 43) {
		t.Fatalf("dir = %v, want only seq-43 checkpoint", names)
	}
	got, err := LoadCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[c.ID] == nil || got[c.ID].Seq != 43 {
		t.Fatalf("LoadCheckpoints = %v", got)
	}
	// A graph whose only checkpoint is corrupt fails loudly.
	path := filepath.Join(dir, ckptName(c.ID, 43))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	os.WriteFile(path, data, 0o644)
	if _, err := LoadCheckpoints(dir); err == nil {
		t.Fatal("LoadCheckpoints accepted a corrupt-only graph")
	}
	// With an older valid checkpoint present, recovery falls back to it.
	if err := WriteCheckpoint(dir, c, nil); err != nil { // writes seq 42, deletes 43
		t.Fatal(err)
	}
	got, err = LoadCheckpoints(dir)
	if err != nil || got[c.ID].Seq != 42 {
		t.Fatalf("fallback load = %v, %v", got, err)
	}
	DeleteCheckpoints(dir, c.ID)
	if got, _ := LoadCheckpoints(dir); len(got) != 0 {
		t.Fatalf("checkpoints survive deletion: %v", got)
	}
}

func TestCheckpointNameRoundTrip(t *testing.T) {
	for _, id := range []string{"", "g", "weird/≠\x00name", "ck--.ckpt"} {
		name := ckptName(id, 7)
		gid, seq, ok := parseCkptName(name)
		if !ok || gid != id || seq != 7 {
			t.Fatalf("name round trip failed for %q: %q -> %q %d %v", id, name, gid, seq, ok)
		}
	}
	if _, _, ok := parseCkptName("shard-0000.wal"); ok {
		t.Fatal("parsed a log file as a checkpoint")
	}
}

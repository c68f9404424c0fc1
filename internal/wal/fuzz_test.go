package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tree"
)

// FuzzRecordDecode drives arbitrary bytes through the frame decoder. The
// invariants: never panic, never allocate per a hostile length prefix, and
// every record that does decode must re-encode to a frame that decodes to
// the same record (no lossy acceptance).
func FuzzRecordDecode(f *testing.F) {
	var seed []byte
	recs := testRecords()
	for i := range recs {
		seed = AppendEncode(nil, &recs[i])
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		res := DecodeAll(data)
		if res.Clean && res.Err != nil {
			t.Fatal("clean scan carries an error")
		}
		if !res.Clean && (res.Torn < 0 || res.Torn > len(data)) {
			t.Fatalf("torn offset %d outside buffer", res.Torn)
		}
		for i := range res.Records {
			reenc := AppendEncode(nil, &res.Records[i])
			back := DecodeAll(reenc)
			if !back.Clean || len(back.Records) != 1 || !reflect.DeepEqual(back.Records[0], res.Records[i]) {
				t.Fatalf("decoded record %d does not survive re-encode: %+v", i, res.Records[i])
			}
		}
	})
}

// frameCheckpoint wraps payload in a checkpoint frame with a matching length
// and CRC, so the decoder gets past the frame checks to the body.
func frameCheckpoint(payload []byte) []byte {
	out := append(ckptMagic[:0:0], ckptMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// checkpointPayload encodes a checkpoint body (everything after the frame
// header) over the given adjacency rows as written, with live marking the
// vertices that are not holes. Every live vertex hangs off the pseudo root,
// which sits just past the slots, so only the rows can be at fault.
func checkpointPayload(rows [][]int, live []bool) []byte {
	slots, total := len(rows), 0
	p := binary.AppendUvarint(nil, 1)
	p = append(p, 'h')
	p = binary.AppendUvarint(p, 7)
	p = binary.AppendUvarint(p, uint64(slots))
	p = binary.AppendUvarint(p, uint64(slots))
	bitmap := make([]byte, (slots+7)/8)
	for v, ok := range live {
		if ok {
			bitmap[v>>3] |= 1 << uint(v&7)
		}
	}
	p = append(p, bitmap...)
	for _, row := range rows {
		total += len(row)
	}
	p = binary.AppendUvarint(p, uint64(total/2))
	for _, row := range rows {
		p = binary.AppendUvarint(p, uint64(len(row)))
	}
	for _, row := range rows {
		for _, w := range row {
			p = binary.AppendUvarint(p, uint64(w))
		}
	}
	for v := 0; v <= slots; v++ {
		parent := int64(tree.None)
		if v < slots && live[v] {
			parent = int64(slots)
		}
		p = binary.AppendVarint(p, parent)
	}
	return p
}

// hostileLive is the liveness of every hostileRows case: slot 3 is a hole.
var hostileLive = []bool{true, true, true, false}

// hostileRows are adjacencies a checkpoint can carry under a valid CRC that
// no graph has. Each keeps the degree sum equal to twice the edge count, so
// the decoder must find the fault in the rows themselves; want is a
// fragment of the error it must report. The encoder writes every row
// strictly increasing, so an unsorted row is rejected too.
var hostileRows = []struct {
	name string
	rows [][]int
	want string
}{
	{"self-loop", [][]int{{0, 2}, {0, 2}, {0, 1}, nil}, "self loop"},
	{"duplicated entry", [][]int{{1, 1}, {0, 2}, {0, 1}, nil}, "duplicate edge"},
	{"asymmetric entry", [][]int{{1}, {2}, nil, nil}, "asymmetric"},
	{"edge to a hole", [][]int{{1, 3}, {0, 2}, {1, 3}, nil}, "non-vertex"},
	{"edge past the slots", [][]int{{1, 9}, {0, 2}, {1, 9}, nil}, "leaves the vertex set"},
	{"hole with edges", [][]int{{1, 3}, {0}, nil, {0}}, "hole 3"},
	{"unsorted row", [][]int{{2, 1}, {0, 2}, {0, 1}, nil}, "not sorted"},
}

// TestCheckpointHostileRows feeds each hostile adjacency through
// DecodeCheckpoint and requires ErrCorrupt naming the fault; the same
// payload over valid rows must decode.
func TestCheckpointHostileRows(t *testing.T) {
	valid := [][]int{{1, 2}, {0, 2}, {0, 1}, nil}
	c, err := DecodeCheckpoint(frameCheckpoint(checkpointPayload(valid, hostileLive)))
	if err != nil || c.Graph.NumEdges() != 3 || c.Graph.IsVertex(3) {
		t.Fatalf("valid rows: %v", err)
	}
	for _, h := range hostileRows {
		_, err := DecodeCheckpoint(frameCheckpoint(checkpointPayload(h.rows, hostileLive)))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s: decode error %v, want ErrCorrupt mentioning %q", h.name, err, h.want)
		}
	}
}

// FuzzCheckpointDecode drives arbitrary checkpoint bodies, framed with a
// valid length and CRC, through DecodeCheckpoint. A decode either fails with
// ErrCorrupt or yields a checkpoint whose re-encoding decodes to the same
// header, edges and tree parents.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(buildCheckpoint(f).Encode()[16:])
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add(binary.AppendUvarint([]byte{0, 0}, 1<<30))
	f.Add(append(binary.AppendUvarint([]byte{0, 0, 0}, 1<<31), 0))
	for _, h := range hostileRows {
		f.Add(checkpointPayload(h.rows, hostileLive))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := DecodeCheckpoint(frameCheckpoint(payload))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		back, err := DecodeCheckpoint(c.Encode())
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if back.ID != c.ID || back.Seq != c.Seq || back.Pseudo != c.Pseudo {
			t.Fatalf("header changed across re-encode: %q/%d/%d vs %q/%d/%d",
				back.ID, back.Seq, back.Pseudo, c.ID, c.Seq, c.Pseudo)
		}
		if !reflect.DeepEqual(back.Graph.Edges(), c.Graph.Edges()) {
			t.Fatal("edges changed across re-encode")
		}
		if !reflect.DeepEqual(back.Tree.Parent, c.Tree.Parent) {
			t.Fatal("tree parents changed across re-encode")
		}
	})
}

// frameRoute wraps payload in a route frame header with a matching length
// and CRC, so the decoder gets past the frame checks to the body.
func frameRoute(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// FuzzRoutesDecode drives arbitrary route-record bodies, framed with a
// valid length and CRC, through decodeRouteFrame. A decode either fails
// with ErrCorrupt or consumes the whole frame and yields a record whose
// appendRouteFrame re-encoding decodes to the same record, consuming the
// whole re-encoded frame.
func FuzzRoutesDecode(f *testing.F) {
	for _, r := range []RouteRecord{
		{Graph: "g1", Shard: 3, Seq: 17},
		{Graph: "", Shard: -1, Seq: 0},
		{Graph: "tenant/with/slashes", Shard: 1 << 20, Seq: 1 << 62},
	} {
		f.Add(appendRouteFrame(nil, &r)[8:])
	}
	f.Add([]byte{})
	f.Add([]byte{recRoute})
	f.Add(binary.AppendUvarint([]byte{recRoute}, 1<<40))
	f.Fuzz(func(t *testing.T, payload []byte) {
		frame := frameRoute(payload)
		r, n, err := decodeRouteFrame(frame)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if n != len(frame) {
			t.Fatalf("decoded %+v from %d of the frame's %d bytes", r, n, len(frame))
		}
		reenc := appendRouteFrame(nil, &r)
		back, m, err := decodeRouteFrame(reenc)
		if err != nil {
			t.Fatalf("re-encoded route %+v does not decode: %v", r, err)
		}
		if back != r || m != len(reenc) {
			t.Fatalf("route changed across re-encode: %+v (%d of %d bytes) vs %+v", back, m, len(reenc), r)
		}
	})
}

package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
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

// FuzzCheckpointDecode drives arbitrary checkpoint bodies, framed with a
// valid length and CRC, through DecodeCheckpoint. A decode either fails with
// ErrCorrupt or yields a checkpoint whose re-encoding decodes to the same
// header, edges and tree parents.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(buildCheckpoint(f).Encode()[16:])
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add(binary.AppendUvarint([]byte{0, 0}, 1<<30))
	f.Add(append(binary.AppendUvarint([]byte{0, 0, 0}, 1<<31), 0))
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

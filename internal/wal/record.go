package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/core"
)

// castagnoli is the CRC32C table shared by log frames and checkpoints.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a frame or checkpoint that failed structural
// validation (bad CRC, impossible length, malformed varints). Recovery
// wraps it in every loud-failure path so callers can errors.Is against it.
var ErrCorrupt = errors.New("wal: corrupt data")

// ErrTooLarge reports a record whose encoded frame payload exceeds
// maxFrame. Log.Append rejects such records before any byte reaches the
// file: the decoder treats an oversized length prefix as corruption, so an
// appended-and-acknowledged oversized record would be discarded at
// recovery — along with every record after it — as a torn tail.
var ErrTooLarge = errors.New("wal: record exceeds maximum frame size")

// maxFrame bounds a single frame's payload, enforced symmetrically: Append
// refuses to write a larger frame, and a length prefix beyond it on decode
// is treated as corruption rather than an allocation request.
const maxFrame = 1 << 26

// Record is one logged update: the graph it applies to, the graph's update
// count after applying it (1-based, contiguous per graph), and the update.
type Record struct {
	Graph  string
	Seq    uint64
	Update core.Update
}

const recUpdate = 1 // payload type tag

// frameHeader is the size of every frame's header (update, route and
// checkpoint frames alike): uint32 LE payload length, uint32 LE CRC32C.
const frameHeader = 8

// openFrame appends a placeholder header to dst; sealFrame fills it in.
func openFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0, 0, 0, 0) }

// sealFrame fills in the header at dst[start:] for the payload after it.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// readFrame parses the frame at the head of data, whose payload may be at
// most limit bytes. It returns the checksummed payload and the number of
// bytes the frame spans, or an error wrapping ErrCorrupt when the head of
// data is not a whole frame with a matching CRC.
func readFrame(data []byte, limit uint32) (payload []byte, consumed int, err error) {
	if len(data) < frameHeader {
		return nil, 0, fmt.Errorf("%w: short frame header (%d bytes)", ErrCorrupt, len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	if n == 0 || n > limit || int(n) > len(data)-frameHeader {
		return nil, 0, fmt.Errorf("%w: frame length %d overruns buffer", ErrCorrupt, n)
	}
	payload = data[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, 0, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	return payload, frameHeader + int(n), nil
}

// AppendEncode appends r's frame (header + payload) to dst and returns it.
func AppendEncode(dst []byte, r *Record) []byte {
	start := len(dst)
	dst = openFrame(dst)
	dst = append(dst, recUpdate)
	dst = binary.AppendUvarint(dst, uint64(len(r.Graph)))
	dst = append(dst, r.Graph...)
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = append(dst, byte(r.Update.Kind))
	dst = binary.AppendVarint(dst, int64(r.Update.U))
	dst = binary.AppendVarint(dst, int64(r.Update.V))
	dst = binary.AppendUvarint(dst, uint64(len(r.Update.Neighbors)))
	for _, w := range r.Update.Neighbors {
		dst = binary.AppendVarint(dst, int64(w))
	}
	return sealFrame(dst, start)
}

// decodeFrame parses one frame at the head of data. It returns the decoded
// record and the number of bytes consumed, or an error when the head of
// data is not a whole, checksummed, well-formed frame.
func decodeFrame(data []byte) (Record, int, error) {
	payload, n, err := readFrame(data, maxFrame)
	if err != nil {
		return Record{}, 0, err
	}
	r, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return r, n, nil
}

func decodePayload(p []byte) (Record, error) {
	var r Record
	if len(p) < 1 || p[0] != recUpdate {
		return r, fmt.Errorf("%w: unknown record type", ErrCorrupt)
	}
	p = p[1:]
	idLen, n := binary.Uvarint(p)
	if n <= 0 || idLen > uint64(len(p)-n) {
		return r, fmt.Errorf("%w: bad graph ID length", ErrCorrupt)
	}
	p = p[n:]
	r.Graph = string(p[:idLen])
	p = p[idLen:]
	if r.Seq, n = binary.Uvarint(p); n <= 0 {
		return r, fmt.Errorf("%w: bad sequence number", ErrCorrupt)
	}
	p = p[n:]
	if len(p) < 1 {
		return r, fmt.Errorf("%w: missing update kind", ErrCorrupt)
	}
	kind := core.UpdateKind(p[0])
	if kind < core.InsertEdge || kind > core.DeleteVertex {
		return r, fmt.Errorf("%w: unknown update kind %d", ErrCorrupt, p[0])
	}
	r.Update.Kind = kind
	p = p[1:]
	u, n := binary.Varint(p)
	if n <= 0 {
		return r, fmt.Errorf("%w: bad update endpoint", ErrCorrupt)
	}
	p = p[n:]
	v, n := binary.Varint(p)
	if n <= 0 {
		return r, fmt.Errorf("%w: bad update endpoint", ErrCorrupt)
	}
	p = p[n:]
	r.Update.U, r.Update.V = int(u), int(v)
	nn, n := binary.Uvarint(p)
	if n <= 0 || nn > uint64(len(p)-n) { // each neighbor is ≥ 1 byte
		return r, fmt.Errorf("%w: bad neighbor count", ErrCorrupt)
	}
	p = p[n:]
	if nn > 0 {
		r.Update.Neighbors = make([]int, nn)
		for i := range r.Update.Neighbors {
			w, n := binary.Varint(p)
			if n <= 0 {
				return r, fmt.Errorf("%w: bad neighbor", ErrCorrupt)
			}
			r.Update.Neighbors[i] = int(w)
			p = p[n:]
		}
	}
	if len(p) != 0 {
		return r, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p))
	}
	return r, nil
}

// ScanResult reports how a log buffer decoded.
type ScanResult struct {
	Records []Record
	// Clean reports that the whole buffer decoded; when false, Torn is the
	// byte offset of the first frame that failed (everything before it
	// decoded cleanly) and Err describes the failure. A torn tail is the
	// expected shape after a crash mid-append; Records is always a strict
	// prefix of what was appended, in append order.
	Clean bool
	Torn  int
	Err   error
}

// DecodeAll decodes every whole valid frame from the head of data,
// stopping at the first frame that fails validation. It never returns an
// error: a bad frame ends the scan, and the outcome is described by the
// ScanResult so callers can decide whether a dirty tail is tolerable.
func DecodeAll(data []byte) ScanResult {
	res := ScanResult{Clean: true}
	off := 0
	for off < len(data) {
		r, n, err := decodeFrame(data[off:])
		if err != nil {
			res.Clean, res.Torn, res.Err = false, off, err
			return res
		}
		res.Records = append(res.Records, r)
		off += n
	}
	return res
}

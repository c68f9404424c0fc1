package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// RoutesFile is the route log's file name inside a WAL directory.
const RoutesFile = "routes.wal"

// RouteRecord pins one graph's shard assignment. Records are appended to a
// single dedicated log (RoutesFile) whose total order is file position, so
// the last record for a graph wins — no cross-file sequence comparison is
// ever needed, unlike the per-shard update logs. Shard < 0 records a route
// removal (the graph was dropped while routed away from its hash shard).
// Seq is the graph's update sequence at the instant the route was written;
// it is diagnostic only — replacement is by file order, not by Seq.
type RouteRecord struct {
	Graph string
	Shard int
	Seq   uint64
}

const recRoute = 1 // payload type tag (route-log namespace)

// appendRouteFrame appends r's frame (the update logs' frame layout) to dst.
func appendRouteFrame(dst []byte, r *RouteRecord) []byte {
	start := len(dst)
	dst = openFrame(dst)
	dst = append(dst, recRoute)
	dst = binary.AppendUvarint(dst, uint64(len(r.Graph)))
	dst = append(dst, r.Graph...)
	dst = binary.AppendVarint(dst, int64(r.Shard))
	dst = binary.AppendUvarint(dst, r.Seq)
	return sealFrame(dst, start)
}

// decodeRouteFrame parses one frame at the head of data, returning the
// record and bytes consumed, or an error when the head is not a whole,
// checksummed, well-formed route frame.
func decodeRouteFrame(data []byte) (RouteRecord, int, error) {
	var r RouteRecord
	p, consumed, err := readFrame(data, maxFrame)
	if err != nil {
		return r, 0, err
	}
	if len(p) < 1 || p[0] != recRoute {
		return r, 0, fmt.Errorf("%w: unknown route record type", ErrCorrupt)
	}
	p = p[1:]
	idLen, k := binary.Uvarint(p)
	if k <= 0 || idLen > uint64(len(p)-k) {
		return r, 0, fmt.Errorf("%w: bad route graph ID length", ErrCorrupt)
	}
	p = p[k:]
	r.Graph = string(p[:idLen])
	p = p[idLen:]
	sh, k := binary.Varint(p)
	if k <= 0 {
		return r, 0, fmt.Errorf("%w: bad route shard index", ErrCorrupt)
	}
	p = p[k:]
	r.Shard = int(sh)
	if r.Seq, k = binary.Uvarint(p); k <= 0 {
		return r, 0, fmt.Errorf("%w: bad route sequence", ErrCorrupt)
	}
	p = p[k:]
	if len(p) != 0 {
		return r, 0, fmt.Errorf("%w: %d trailing route payload bytes", ErrCorrupt, len(p))
	}
	return r, consumed, nil
}

// RouteLog is the durable graph-to-shard routing journal of one WAL
// directory: a single append-only file whose Append is the commit point of
// a migration. All methods must be called from one goroutine at a time
// (the service serializes them under its route mutex).
type RouteLog struct {
	f    *os.File
	path string
}

// OpenRoutes opens dir's route log, returning the decoded records in file
// (= commit) order. A torn tail — a crash mid-append — is truncated away:
// the bytes past the last whole frame were never acknowledged as a route
// flip, so the migration they belonged to never happened durably. A missing
// file is an empty log.
func OpenRoutes(dir string) (*RouteLog, []RouteRecord, error) {
	path := filepath.Join(dir, RoutesFile)
	var recs []RouteRecord
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: read routes: %w", err)
	}
	off := 0
	for off < len(data) {
		r, n, derr := decodeRouteFrame(data[off:])
		if derr != nil {
			break
		}
		recs = append(recs, r)
		off += n
	}
	if off < len(data) {
		if err := os.Truncate(path, int64(off)); err != nil {
			return nil, nil, fmt.Errorf("wal: truncate torn route tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open routes: %w", err)
	}
	return &RouteLog{f: f, path: path}, recs, nil
}

// Append appends and fsyncs one route record. The fsync is what makes a
// migration's flip durable, so Append returning nil means recovery after
// any crash will place the graph by this record.
func (l *RouteLog) Append(r RouteRecord) error {
	buf := appendRouteFrame(nil, &r)
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append route: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync route: %w", err)
	}
	return nil
}

// Compact atomically rewrites the log to exactly the live records
// (replaceFile) and reopens it for append. Called at recovery, after dead
// entries — dropped graphs, superseded flips, removals — have been folded
// out, so the file never grows without bound. Route I/O is outside the
// Injector: the rewrite passes none.
func (l *RouteLog) Compact(live []RouteRecord) error {
	var buf []byte
	for i := range live {
		buf = appendRouteFrame(buf, &live[i])
	}
	if err := replaceFile(filepath.Dir(l.path), RoutesFile, buf, nil); err != nil {
		return fmt.Errorf("wal: compact routes: %w", err)
	}
	old := l.f
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen routes: %w", err)
	}
	l.f = f
	old.Close()
	return nil
}

// Close closes the route log file.
func (l *RouteLog) Close() error { return l.f.Close() }

package wal

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrLogFailed is the sticky failure state of a Log whose write path
// errored: once an append or sync fails, the log refuses all further
// appends (fail-stop), because a hole in the record sequence would make
// the tail unreplayable.
var ErrLogFailed = errors.New("wal: log failed; shard write path is fail-stopped")

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncBatch fsyncs once per commit round (group commit): every update
	// of a mailbox round is appended, then one fsync covers them all before
	// any of their futures resolve. The default.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every record. Strongest guarantee, one fsync
	// per update.
	SyncAlways
	// SyncInterval fsyncs at most once per Options.Interval; commits
	// between syncs are acknowledged unsynced. Survives process crashes
	// (the OS holds the pages) but an OS/power crash can lose the last
	// interval's acknowledged updates.
	SyncInterval
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Options configure a Log.
type Options struct {
	Policy   SyncPolicy
	Interval time.Duration // SyncInterval period; default 100ms
	Injector *Injector     // optional crash injection

	// AppendHist and SyncHist, when non-nil, receive per-append and
	// per-fsync latencies.
	AppendHist *obs.Histogram
	SyncHist   *obs.Histogram
}

// LogStats are a Log's cumulative counters, safe to sample concurrently
// with the owner's appends.
type LogStats struct {
	Appends     uint64 // records appended
	AppendBytes uint64 // bytes appended (frames)
	Syncs       uint64 // fsyncs issued
}

// Log is one shard's append-only record log. All mutating methods must be
// called from the owning shard's goroutine; Stats may be sampled from
// anywhere.
type Log struct {
	f        *os.File
	path     string
	opts     Options
	buf      []byte // encode scratch
	dirty    bool   // bytes written since the last successful sync
	lastSync time.Time
	failed   error // sticky first write-path error

	appends     atomic.Uint64
	appendBytes atomic.Uint64
	syncs       atomic.Uint64
}

// OpenLog opens (creating if absent) the append-only log at path.
func OpenLog(path string, opts Options) (*Log, error) {
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	return &Log{f: f, path: path, opts: opts, lastSync: time.Now()}, nil
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Stats samples the log's cumulative counters.
func (l *Log) Stats() LogStats {
	return LogStats{
		Appends:     l.appends.Load(),
		AppendBytes: l.appendBytes.Load(),
		Syncs:       l.syncs.Load(),
	}
}

// Err returns the log's sticky failure, if any.
func (l *Log) Err() error { return l.failed }

func (l *Log) fail(err error) error {
	if l.failed == nil {
		l.failed = err
	}
	return err
}

// Append encodes and writes one record. Under SyncAlways it also fsyncs
// before returning; under the other policies durability is deferred to
// Commit. After any error the log is failed and further appends are
// rejected with ErrLogFailed.
func (l *Log) Append(r *Record) error {
	if l.failed != nil {
		return fmt.Errorf("%w (first failure: %v)", ErrLogFailed, l.failed)
	}
	l.buf = AppendEncode(l.buf[:0], r)
	if len(l.buf)-frameHeader > maxFrame {
		// Fail-stop before any byte reaches the file: recovery would reject
		// the frame's length prefix as corruption, discarding this record
		// and the whole tail after it, so acknowledging it would violate
		// acked <= recovered.
		return l.fail(fmt.Errorf("wal: append: frame payload %d bytes: %w", len(l.buf)-frameHeader, ErrTooLarge))
	}
	t0 := time.Now()
	n, err := l.opts.Injector.write(l.f, l.buf)
	if n > 0 {
		l.dirty = true
		l.appendBytes.Add(uint64(n))
	}
	if err != nil {
		return l.fail(fmt.Errorf("wal: append: %w", err))
	}
	l.appends.Add(1)
	if h := l.opts.AppendHist; h != nil {
		h.Record(time.Since(t0))
	}
	if l.opts.Policy == SyncAlways {
		return l.Sync()
	}
	return nil
}

// Commit is the round barrier: called once per mailbox round after its
// appends, it applies the sync policy (SyncBatch syncs now; SyncInterval
// syncs when the interval elapsed; SyncAlways already synced per record).
func (l *Log) Commit() error {
	if l.failed != nil {
		return fmt.Errorf("%w (first failure: %v)", ErrLogFailed, l.failed)
	}
	switch l.opts.Policy {
	case SyncBatch:
		return l.Sync()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.Interval {
			return l.Sync()
		}
	}
	return nil
}

// Sync fsyncs the log if any bytes were appended since the last sync.
func (l *Log) Sync() error {
	if l.failed != nil {
		return fmt.Errorf("%w (first failure: %v)", ErrLogFailed, l.failed)
	}
	if !l.dirty {
		l.lastSync = time.Now()
		return nil
	}
	t0 := time.Now()
	if err := l.opts.Injector.sync(l.f); err != nil {
		return l.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	l.dirty = false
	l.lastSync = time.Now()
	l.syncs.Add(1)
	if h := l.opts.SyncHist; h != nil {
		h.Record(time.Since(t0))
	}
	return nil
}

// Reset truncates the log to empty after a checkpoint covered its whole
// contents. The truncation is fsynced so a crash cannot resurrect the
// covered prefix next to the fresh checkpoints.
func (l *Log) Reset() error {
	if l.failed != nil {
		return fmt.Errorf("%w (first failure: %v)", ErrLogFailed, l.failed)
	}
	if err := l.f.Truncate(0); err != nil {
		return l.fail(fmt.Errorf("wal: truncate: %w", err))
	}
	// O_APPEND writes always go to the (now zero) end of file, so no seek
	// is needed; sync the metadata change.
	if err := l.opts.Injector.sync(l.f); err != nil {
		return l.fail(fmt.Errorf("wal: truncate fsync: %w", err))
	}
	l.dirty = false
	l.syncs.Add(1)
	return nil
}

// Close syncs outstanding appends and closes the file. A failed log closes
// without syncing.
func (l *Log) Close() error {
	var err error
	if l.failed == nil {
		err = l.Sync()
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

// ReadLogFile scans one log file, tolerating a torn tail.
func ReadLogFile(path string) (ScanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ScanResult{}, fmt.Errorf("wal: read log: %w", err)
	}
	return DecodeAll(data), nil
}

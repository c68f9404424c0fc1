package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrLocked reports that a live process already holds a WAL directory's
// exclusive lock.
var ErrLocked = errors.New("wal: directory locked by another process")

// DirLock is an exclusive advisory lock on a WAL directory. Two services
// appending to the same shard logs would interleave independent per-graph
// sequences and truncate each other's records at checkpoint rotation, so a
// directory admits exactly one owner at a time. The lock is held on a
// dedicated wal.lock file via flock, which the kernel releases when the
// owning process dies — a kill -9 never wedges the restart's recovery.
type DirLock struct {
	f *os.File
}

// LockDir takes dir's exclusive lock, failing fast with ErrLocked when a
// live process (or another handle in this one) already holds it. Holding
// the lock makes its owner dir's only writer, so LockDir then deletes the
// temp files a crash mid-replaceFile left behind.
func LockDir(dir string) (*DirLock, error) {
	f, err := os.OpenFile(filepath.Join(dir, "wal.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: lock: %w", err)
	}
	if err := flockExclusive(f); err != nil {
		f.Close()
		if errors.Is(err, errWouldBlock) {
			return nil, fmt.Errorf("wal: %s: %w", dir, ErrLocked)
		}
		return nil, fmt.Errorf("wal: lock %s: %w", dir, err)
	}
	removeTemps(dir)
	return &DirLock{f: f}, nil
}

// Release drops the lock. The wal.lock file itself is kept: unlinking it
// would race a concurrent LockDir into locking the orphaned inode.
func (l *DirLock) Release() error {
	if l == nil || l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	funlock(f)
	return f.Close()
}

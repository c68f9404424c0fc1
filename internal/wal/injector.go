package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// ErrInjected is the failure every triggered Injector operation returns
// (possibly after a short write). Tests distinguish simulated media faults
// from real ones with errors.Is.
var ErrInjected = errors.New("wal: injected I/O failure")

// InjectMode selects how the Nth I/O operation fails.
type InjectMode int

const (
	// InjectFailWrite fails the Nth operation outright: if it is a write,
	// nothing reaches the file.
	InjectFailWrite InjectMode = iota
	// InjectShortWrite performs the Nth write only partially (half the
	// buffer) before failing — the torn-record case.
	InjectShortWrite
	// InjectFailSync lets writes through but fails the first sync at or
	// after the Nth operation — data reaches the OS but durability is never
	// confirmed.
	InjectFailSync
)

// Injector simulates a fail-stop disk: I/O operations (writes and syncs,
// across the log and checkpoint files sharing it) are counted, the Nth one
// fails per Mode, and every operation after the trigger fails too. The
// zero value never fires. An Injector may be shared by concurrent shards;
// the counter is global across them, which is exactly what "kill the
// process at its Nth I/O" means.
type Injector struct {
	FailAt int // 1-based operation index to trigger at; 0 = never
	Mode   InjectMode

	mu      sync.Mutex
	ops     int
	tripped bool
}

// Ops returns the number of I/O operations observed so far.
func (in *Injector) Ops() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Tripped reports whether the injector has fired.
func (in *Injector) Tripped() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.tripped
}

// beforeWrite accounts one write of n bytes. It returns how many bytes the
// caller may actually write and the error to return afterwards (nil to
// proceed normally).
func (in *Injector) beforeWrite(n int) (int, error) {
	if in == nil {
		return n, nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.tripped {
		return 0, ErrInjected
	}
	in.ops++
	if in.FailAt > 0 && in.ops >= in.FailAt && in.Mode != InjectFailSync {
		in.tripped = true
		if in.Mode == InjectShortWrite {
			return n / 2, ErrInjected
		}
		return 0, ErrInjected
	}
	return n, nil
}

// beforeSync accounts one fsync and returns the error it should fail with.
func (in *Injector) beforeSync() error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.tripped {
		return ErrInjected
	}
	in.ops++
	if in.FailAt > 0 && in.ops >= in.FailAt {
		in.tripped = true
		return ErrInjected
	}
	return nil
}

// write is the one way a write reaches a file in this package: it writes
// the part of data beforeWrite allows to f, then fails with the injected
// error, if any. A short write is an error; n is what reached f.
func (in *Injector) write(f *os.File, data []byte) (n int, err error) {
	allow, injected := in.beforeWrite(len(data))
	if allow > 0 {
		n, err = f.Write(data[:allow])
	}
	if err == nil {
		err = injected
	}
	if err == nil && n < len(data) {
		err = fmt.Errorf("short write (%d of %d bytes)", n, len(data))
	}
	return n, err
}

// sync fsyncs f unless beforeSync fails the operation.
func (in *Injector) sync(f *os.File) error {
	if err := in.beforeSync(); err != nil {
		return err
	}
	return f.Sync()
}

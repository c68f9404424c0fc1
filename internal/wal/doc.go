// Package wal is the durability layer under the serving stack: an
// append-only, CRC32C-framed, length-prefixed write-ahead log of graph
// updates plus snapshot checkpoints, giving dfs.Service crash recovery
// with a bounded replay tail.
//
// # Frame format
//
// Update logs, the route log and checkpoints share one frame layout,
// written by one encoder and checked by one reader:
//
//	uint32 LE payload length | uint32 LE CRC32C(payload) | payload
//
// A log file is a sequence of frames. An update-log payload encodes one
// Record — the graph ID, the update's per-graph sequence number (the
// graph's update count after applying it), and the core.Update itself —
// with varint fields. The shard loop appends a record for every applied
// update before publishing its snapshot, so a record is on disk before
// its update is acknowledged (under SyncAlways and SyncBatch;
// SyncInterval trades the tail for latency).
//
// Decoding tolerates a torn final record: DecodeAll consumes frames until
// the first one whose length overruns the buffer or whose CRC mismatches,
// and reports how much of the buffer was clean. A corrupted frame anywhere
// therefore yields a strict prefix of the appended records — never a
// record that was not appended, and never a reordering (TestDecodeAllBitFlips
// in wal_test.go flips every byte to prove it). A gap a prefix cannot
// produce (a missing middle record for one graph) is caught at replay by
// the per-graph sequence numbers and fails recovery loudly. The golden
// tests in format_test.go pin the bytes of all three file kinds.
//
// # Checkpoints
//
// A Checkpoint serializes one graph's full state at an update boundary:
// the liveness bitmap, each slot's degree followed by the sorted adjacency
// rows, the DFS tree's parent array, the pseudo root and the update count.
// The file is a magic number and then one frame that fills it exactly,
// with no size cap. Decoding rejects rows the encoder cannot have written
// (self-loops, repeated or unsorted entries, edges to holes, asymmetric
// entries). Capturing a checkpoint from immutable published state is a
// pointer grab; writing it is O(n+m), off the per-update path (every
// service.WALConfig.CheckpointEvery records, and at graph creation, drops
// and migration freezes). Once a shard has checkpointed every graph it
// owns, its log is truncated; recovery loads the newest valid checkpoint
// per graph and replays only the records past its sequence number.
//
// Checkpoints and route-log compaction rewrite a file one way: write a
// fixed temp name, fsync, rename, fsync the directory. A crash leaves the
// previous file intact, and LockDir deletes any temp file left behind.
//
// # Crash injection
//
// Injector simulates a fail-stop disk for tests: it fails, short-writes,
// or fails the fsync of the Nth I/O operation, and every later one. All
// update-log and checkpoint I/O routes through it, so a test can kill the
// write path at every reachable point and check that recovery restores
// exactly the acknowledged prefix. The route log is outside the Injector:
// its appends and compaction count no operations and never fail on it.
package wal

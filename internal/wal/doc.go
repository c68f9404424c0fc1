// Package wal is the durability layer under the serving stack: an
// append-only, CRC32C-framed, length-prefixed write-ahead log of graph
// updates plus snapshot checkpoints, giving dfs.Service crash recovery
// with a bounded replay tail.
//
// # Log format
//
// A log file is a sequence of frames:
//
//	uint32 LE payload length | uint32 LE CRC32C(payload) | payload
//
// Each payload encodes one Record — the graph ID, the update's per-graph
// sequence number (the graph's update count after applying it), and the
// core.Update itself — with varint fields. The shard loop appends a record
// for every successfully applied update before publishing its snapshot, so
// a record's presence on disk is a prerequisite for the update being
// acknowledged to the submitter (under the SyncAlways and SyncBatch
// policies; SyncInterval trades the tail for latency).
//
// Decoding tolerates a torn final record: DecodeAll consumes frames until
// the first one whose length overruns the buffer or whose CRC mismatches,
// and reports how much of the buffer was clean. A corrupted frame anywhere
// therefore yields a strict prefix of the appended records — never a
// record that was not appended, and never a reordering (the property test
// in corrupt_test.go flips every byte to prove it). Semantic gaps that a
// prefix cannot produce (a missing middle record for one graph) are caught
// at replay time by the per-graph sequence numbers and fail recovery
// loudly.
//
// # Checkpoints
//
// A Checkpoint serializes one graph's full state at an update boundary:
// the liveness bitmap, each slot's degree followed by the sorted adjacency
// rows read straight from the persistent graph, the DFS tree's parent
// array, the pseudo root and the update count. Decoding fills the rows
// directly and rejects any the encoder cannot have written (self-loops,
// repeated or unsorted entries, edges to holes, asymmetric entries).
// Because published versions are immutable, capturing one is a pointer
// grab; serialization cost is O(n+m) but happens off the per-update path (every Options.CheckpointEvery
// records, at graph creation, and at drops). After a shard checkpoints
// every graph it owns, the log prefix those checkpoints cover is dead and
// the log is truncated; recovery loads the newest valid checkpoint per
// graph and replays only the log tail, skipping records at or below each
// checkpoint's sequence number.
//
// Checkpoint files are written to a temp name, fsynced, then renamed, so a
// crash mid-checkpoint leaves the previous checkpoint intact.
//
// # Crash injection
//
// Injector simulates media failures for tests: it fails, short-writes, or
// returns fsync errors at the Nth I/O operation, and once triggered every
// later operation fails too (a fail-stop disk). Log and checkpoint writes
// both route through it, so a test can kill the write path at every
// reachable I/O point and assert that recovery restores exactly the
// durably acknowledged prefix.
package wal

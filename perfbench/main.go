// Command perfbench is the repository's benchmark. It drives the public
// dfs.Service API from one client goroutine with one of three workloads
// (churn, durable, read-mix), checks every output against independent
// oracles, and prints one JSON result as the last line of standard output.
//
// Usage:
//
//	perfbench --workload churn --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of a run timed for
// --seconds. With --trace 1 it runs fixed-size phases with a span around
// every public call, replays the same stream through each layer, and
// reports the per-layer metrics; the spans are written to the work
// directory. The exit code is 0 when every oracle passed, 1 when one
// failed (the result still prints, with "correct": false), and 2 when the
// run could not be made. See NOTES.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// host is printed with every result. The durable workload's WAL
// directories live in the work directory, so its filesystem is the WAL's.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	WALFS      string `json:"wal_fs"`
}

func hostFacts(workdir string) string {
	b, _ := json.Marshal(map[string]host{"host": { // strings and ints always marshal
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		WALFS:      fsType(workdir),
	}})
	return string(b)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "churn, durable or read-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 15, "length of the timed phase (trace 0) or size of the fixed phases (trace 1)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for WAL directories and span files")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, oracleErr, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(hostFacts(o.workdir))
	fmt.Println(string(out))
	if oracleErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", oracleErr)
		os.Exit(1)
	}
}

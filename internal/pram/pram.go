// Package pram provides the EREW PRAM cost model the paper's theorems are
// stated in, realized as an accounting machine.
//
// The machine is an accountant only: it executes nothing. Every algorithm
// runs sequentially on the calling goroutine, and each call site that
// implements a step of the paper's parallel algorithms charges, through
// Charge, the model time ("depth", parallel steps) and work (total
// operations) that the paper's theorems charge for that step on an EREW
// PRAM with the machine's processor budget. Benchmarks report both, so the
// O(log³ n) shape of Theorem 1 is observable independent of host constant
// factors, and the recorded costs cannot depend on the host's core count.
//
// Charging conventions at the Charge call sites (matching Section 5 of the
// paper; lg = ⌈log₂ n⌉ via Log2Ceil):
//
//   - A batch of k independent D-queries / LCA queries: depth lg,
//     work k·lg (Theorems 6 and 8).
//   - Building D: one parallel merge sort per adjacency row, all rows at
//     once on m processors — depth ⌈log₂ Δ⌉, work 2m·⌈log₂ Δ⌉ for maximum
//     degree Δ (Cole's merge sort, Theorems 7 and 8). Repositioning k moved
//     entries incrementally: depth lg, work k·lg.
//   - One rerooted subtree traversed sequentially (the subtree-DFS
//     executor): depth = work = vertices reached + row entries scanned.
//   - Sequential-mode engine query batches model Baswana et al.'s structure
//     D₀: depth = work = lg³ per batch.
//
// Charge calls from concurrent goroutines are safe: the counters are
// atomic, so readers such as a metrics scrape may sample them at any time.
package pram

import (
	"sync/atomic"
)

// Machine is an EREW PRAM cost accountant with a processor budget. The zero
// value is not usable; use NewMachine.
type Machine struct {
	procs atomic.Int64 // model processor budget (n or m in the theorems)

	depth atomic.Int64
	work  atomic.Int64
	steps atomic.Int64 // number of Charge calls
}

// NewMachine returns a machine with the given model processor budget.
// procs <= 0 defaults to 1.
func NewMachine(procs int) *Machine {
	if procs <= 0 {
		procs = 1
	}
	m := &Machine{}
	m.procs.Store(int64(procs))
	return m
}

// NewMachineWithWorkers returns NewMachine(procs).
//
// Deprecated: workers is ignored; the machine executes nothing. Use
// NewMachine.
func NewMachineWithWorkers(procs, workers int) *Machine { return NewMachine(procs) }

// Procs returns the model processor budget.
func (m *Machine) Procs() int { return int(m.procs.Load()) }

// SetProcs changes the model processor budget (e.g. m processors for
// preprocessing, n for updates, per Theorem 1). The budget is stored
// atomically, so it may be changed while other goroutines read it.
func (m *Machine) SetProcs(p int) {
	if p <= 0 {
		p = 1
	}
	m.procs.Store(int64(p))
}

// Depth returns the accumulated model parallel time.
func (m *Machine) Depth() int64 { return m.depth.Load() }

// Work returns the accumulated model work (total operations).
func (m *Machine) Work() int64 { return m.work.Load() }

// Steps returns the number of Charge calls.
func (m *Machine) Steps() int64 { return m.steps.Load() }

// Reset zeroes the accumulated costs.
func (m *Machine) Reset() {
	m.depth.Store(0)
	m.work.Store(0)
	m.steps.Store(0)
}

// Charge adds the model cost (depth, work) of one parallel step; negative
// components are ignored.
func (m *Machine) Charge(depth, work int64) {
	if depth > 0 {
		m.depth.Add(depth)
	}
	if work > 0 {
		m.work.Add(work)
	}
	m.steps.Add(1)
}

// Log2Ceil returns ⌈log₂ n⌉ for n ≥ 1 (0 for n ≤ 1).
func Log2Ceil(n int) int64 {
	if n <= 1 {
		return 0
	}
	d := int64(0)
	for p := 1; p < n; p <<= 1 {
		d++
	}
	return d
}

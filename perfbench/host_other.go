//go:build !linux

package main

import "time"

func fsType(string) string { return "unknown" }

func stealTicks() int64 { return -1 }

func cpuTime() time.Duration { return 0 }

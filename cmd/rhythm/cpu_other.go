//go:build !unix

package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// cpuUsed estimates the CPU time the process has used so far where
// getrusage is not available, as the Go runtime accounts it: the CPU time
// GOMAXPROCS made available minus the idle part. That counts the time a
// P is held rather than run, so it reads high. The runtime refreshes
// these counters only when a garbage collection ends, so cpuUsed forces
// one to read them current.
func cpuUsed() time.Duration {
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return time.Duration((s[0].Value.Float64() - s[1].Value.Float64()) * float64(time.Second))
}

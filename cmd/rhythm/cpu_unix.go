//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuUsed returns the CPU time the process has used so far, user plus
// system, as the kernel accounts it (getrusage RUSAGE_SELF): the figure
// time(1) reports.
func cpuUsed() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

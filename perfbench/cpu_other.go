//go:build !linux

package main

import (
	"syscall"
	"time"
)

// processCPU is the CPU time all of the process's threads have run, user
// and system, to the microsecond; 0 where it cannot be read.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

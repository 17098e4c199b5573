//go:build unix

package vpart_test

import (
	"syscall"
	"testing"
	"time"
)

// processCPUSeconds returns the CPU time the process has used, user and
// system, in seconds.
func processCPUSeconds(b *testing.B) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

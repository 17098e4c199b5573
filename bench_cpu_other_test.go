//go:build !unix

package vpart_test

import "testing"

// processCPUSeconds skips the benchmark: the process CPU time it reports
// comes from getrusage, which only unix systems provide.
func processCPUSeconds(b *testing.B) float64 {
	b.Skip("process CPU time needs getrusage (unix only)")
	return 0
}

//go:build !linux

package main

import "time"

// preciseSleep falls back to the Go runtime's timer where nanosleep(2)
// is not in package syscall; lateness rows show the cost.
func preciseSleep(d time.Duration) { time.Sleep(d) }

// The CPU and resident-set figures are not measured here: they read 0,
// and a run whose end-to-end metric reads 0 fails.

func processCPU() time.Duration { return 0 }

func peakRSSMB() float64 { return 0 }

func resetPeakRSS() {}

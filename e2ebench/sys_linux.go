package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// preciseSleep blocks the calling thread in nanosleep(2) for d. The
// kernel's high-resolution timer wakes it within its timer slack (50 µs
// by default), where the Go runtime's timers round an idle wait up to a
// whole millisecond.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}

// processCPU is the CPU time the process has run, user and system, on
// all its threads (clock_gettime(2) CLOCK_PROCESS_CPUTIME_ID). Time a
// thread waits runnable but not running is charged to no one, and so,
// on a virtual machine with steal-time accounting, is time the
// hypervisor gives to another guest.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MiB since it was last reset.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS resets the high-water mark to the current resident set.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

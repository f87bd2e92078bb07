package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// runtime's timers round sub-millisecond sleeps up to about a millisecond
// on Linux, which would add that much to every open-loop latency; a
// blocking nanosleep wakes within the kernel's timer slack, and the
// runtime hands the sleeping thread's processor to other goroutines.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// cpuTime returns the CPU time (user + system) the process has used so
// far, over all its threads. Time the hypervisor gives the vCPU to other
// guests (steal) is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPUTime returns the CPU time (user + system) the calling thread
// has used so far. The caller locks its goroutine to the thread.
func threadCPUTime() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(err) // RUSAGE_THREAD with a valid pointer cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime returns the CPU time the hypervisor has given this VM's
// vCPUs to other guests since boot, summed over the vCPUs: the steal
// column of /proc/stat, in USER_HZ (1/100 s) ticks. It returns 0 where
// the kernel does not report it.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / 100)
}

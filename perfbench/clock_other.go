//go:build !linux

package main

import "time"

// sleepUntil sleeps until t on the runtime's timers.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

var start = time.Now()

// cpuTime stands in wall time since start for the process's CPU time.
func cpuTime() time.Duration { return time.Since(start) }

// threadCPUTime stands in wall time since start for the thread's CPU
// time.
func threadCPUTime() time.Duration { return time.Since(start) }

// stealTime is 0 where the hypervisor's steal is not read.
func stealTime() time.Duration { return 0 }

package main

import (
	"cmp"
	"runtime"
	"slices"
	"time"
)

// refNominal is how long one refWork.run takes on the machine the
// benchmark was tuned on (a 2-vCPU Xeon VM, go1.24.0) at its median
// speed. The latencies, capacity_rps and run_s are reported at that
// speed.
const refNominal = 50 * time.Millisecond

// refWork is a fixed piece of CPU work that uses no code of the
// repository: hashing into a map, sorting and walking the entries. The
// benchmark times it right before and right after each HTTP segment and
// each chaos run, and divides out how fast the shared host happened to
// be at that moment (see README.md). After the first call it allocates
// nothing, so its time does not depend on the size of the heap.
type refWork struct {
	idx   map[uint64]int32
	keys  []uint64
	vals  []float64
	order []int32
	sum   float64 // the result of the first run; every run must repeat it
}

// One run makes refPasses passes, each drawing refKeys keys from a range
// of half as many.
const refPasses, refKeys = 5, 1 << 16

func newRefWork() *refWork {
	return &refWork{
		idx:   make(map[uint64]int32, refKeys/2),
		keys:  make([]uint64, 0, refKeys/2),
		vals:  make([]float64, 0, refKeys/2),
		order: make([]int32, 0, refKeys/2),
	}
}

// run does the work once and returns the CPU time of the thread that did
// it, so that no other goroutine's work lands in it. It panics if the
// work's result differs from the first run's, which only a broken build
// could cause.
func (w *refWork) run() time.Duration {
	// Finish any collection cycle first, so the collector does not mark
	// on this thread while the work runs.
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUTime()
	var sum float64
	for p := 0; p < refPasses; p++ {
		sum += w.pass(uint64(p))
	}
	d := threadCPUTime() - c0
	if w.sum == 0 {
		w.sum = sum
	} else if sum != w.sum {
		panic("perfbench: the reference work gave a different result")
	}
	return d
}

// pass makes one pass of the work from the given stream of keys.
func (w *refWork) pass(stream uint64) float64 {
	clear(w.idx)
	w.keys, w.vals, w.order = w.keys[:0], w.vals[:0], w.order[:0]
	x := 0x9E3779B97F4A7C15 + stream
	for i := 0; i < refKeys; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % (refKeys / 2)
		j, ok := w.idx[k]
		if !ok {
			j = int32(len(w.keys))
			w.idx[k] = j
			w.keys = append(w.keys, k)
			w.vals = append(w.vals, 0)
			w.order = append(w.order, j)
		}
		w.vals[j] += float64(k&1023) * 0.25
	}
	slices.SortFunc(w.order, func(a, b int32) int {
		if c := cmp.Compare(w.vals[a], w.vals[b]); c != 0 {
			return c
		}
		return cmp.Compare(w.keys[a], w.keys[b])
	})
	var sum float64
	for i, j := range w.order {
		sum += w.vals[j] * float64(i&7)
		if i%3 == 0 {
			delete(w.idx, w.keys[j])
		}
	}
	return sum + float64(len(w.idx))
}

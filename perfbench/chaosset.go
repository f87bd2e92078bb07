package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hnp/internal/adapt"
	"hnp/internal/chaos"
	"hnp/internal/obs"
)

// flightSize is the flight-recorder ring each chaos world gets: large
// enough that no migration event of a rate-shift run is overwritten, so
// the migration counts read from it are complete.
const flightSize = 1 << 15

// chaosRun is the outcome of running the rate-shift seed set once.
type chaosRun struct {
	CPU        []time.Duration // per seed: process CPU time its run took
	Ref        []time.Duration // per seed: mean time of the reference work right before and after its run
	Bytes      float64         // Σ Report.Stats.TotalBytes
	Tuples     int64           // Σ TuplesTransferred
	Migrations int             // migration_applied events
	OpsChurned int             // Σ created+retired operators over those migrations
	Adapt      adapt.Stats     // controller counters summed over the set
}

// sameOutcome reports whether two runs of the set shipped the same bytes
// in the same migrations.
func (c *chaosRun) sameOutcome(o *chaosRun) bool {
	return c.Bytes == o.Bytes && c.Tuples == o.Tuples && c.Migrations == o.Migrations && c.OpsChurned == o.OpsChurned
}

// chaosSetEnv, when set to a comma-separated seed list, makes the
// program run the chaos set over those seeds instead of a benchmark run
// and print the outcome as JSON (see runChaosChild).
const chaosSetEnv = "PERFBENCH_CHAOS_SET"

// runChaosChild runs the chaos set in a fresh process of this program and
// waits for it to end. The set's runs then collect garbage on a heap of
// their own: in the benchmark's process the served systems and the
// recorded latencies are live, and marking them made each run cost about
// a third more CPU, by an amount that grew over the run.
func runChaosChild(seeds []int64) (*chaosRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	list := make([]string, len(seeds))
	for i, s := range seeds {
		list[i] = strconv.FormatInt(s, 10)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), chaosSetEnv+"="+strings.Join(list, ","))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("chaos set: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var cr chaosRun
	if err := json.Unmarshal(out, &cr); err != nil {
		return nil, fmt.Errorf("chaos set: reading its outcome: %w", err)
	}
	return &cr, nil
}

// chaosChild is the child process's side of runChaosChild: it runs the
// set over the seeds in list and writes the outcome to stdout.
func chaosChild(list string, stdout, stderr io.Writer) int {
	var seeds []int64
	for _, f := range strings.Split(list, ",") {
		s, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s=%q: %v\n", chaosSetEnv, list, err)
			return 2
		}
		seeds = append(seeds, s)
	}
	cr, err := runChaosSet(seeds)
	if err == nil {
		err = json.NewEncoder(stdout).Encode(cr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runChaosSet runs chaos.RateShiftConfig(seed) under the adapt.Controller
// for every seed, timing each run and the reference work right before
// and after it. Every run must end without an invariant error or an
// A→B→A oscillation. The runs are single-threaded, and the set runs with
// one processor, so the garbage collector's idle workers cannot add CPU
// time that depends on whether the other vCPU is free.
func runChaosSet(seeds []int64) (*chaosRun, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cr := &chaosRun{}
	ref := newRefWork()
	ref.run() // the first run faults its memory in
	before := ref.run()
	for _, seed := range seeds {
		runtime.GC()
		c0 := cpuTime()
		w, err := chaos.New(chaos.RateShiftConfig(seed))
		if err != nil {
			return nil, err
		}
		w.Tracer().Resize(flightSize)
		r, err := w.Run()
		if err != nil {
			return nil, fmt.Errorf("adapt-shift: %w", err)
		}
		cpu := cpuTime() - c0
		after := ref.run()
		cr.CPU = append(cr.CPU, cpu)
		cr.Ref = append(cr.Ref, (before+after)/2)
		before = after
		if r.Oscillations != 0 {
			return nil, fmt.Errorf("adapt-shift: seed %d: %d plan oscillations", seed, r.Oscillations)
		}
		if d := w.Tracer().Dropped(); d > 0 {
			return nil, fmt.Errorf("adapt-shift: seed %d: flight recorder dropped %d events", seed, d)
		}
		cr.Bytes += r.Stats.TotalBytes
		cr.Tuples += r.Stats.TuplesTransferred
		for _, e := range r.Flight {
			if e.Kind != obs.KindMigrationApplied {
				continue
			}
			var kept, created, retired int
			if _, err := fmt.Sscanf(e.Detail, "kept=%d created=%d retired=%d", &kept, &created, &retired); err != nil {
				return nil, fmt.Errorf("adapt-shift: reading migration event %q: %w", e.Detail, err)
			}
			cr.Migrations++
			cr.OpsChurned += created + retired
		}
		a := &cr.Adapt
		a.Checks += r.Adapt.Checks
		a.Replans += r.Adapt.Replans
		a.Migrations += r.Adapt.Migrations
		a.SuppressedDeadband += r.Adapt.SuppressedDeadband
		a.SuppressedHysteresis += r.Adapt.SuppressedHysteresis
		a.SuppressedCooldown += r.Adapt.SuppressedCooldown
		a.SuppressedRevert += r.Adapt.SuppressedRevert
	}
	return cr, nil
}

// cpuTotal is the process CPU time of the set's runs.
func (c *chaosRun) cpuTotal() time.Duration {
	var t time.Duration
	for _, d := range c.CPU {
		t += d
	}
	return t
}

// runSeconds is run_s over the chaos sets cs: for each seed, the median
// over the sets of its run's CPU time divided by the reference work's
// time around it, summed over the seeds and scaled by refNominal. So it
// is the set's CPU time at the reference speed of the host (see
// README.md).
func runSeconds(cs []*chaosRun) float64 {
	var s float64
	for i := range cs[0].CPU {
		var rel []float64
		for _, c := range cs {
			rel = append(rel, c.CPU[i].Seconds()/c.Ref[i].Seconds())
		}
		s += median(rel)
	}
	return s * refNominal.Seconds()
}

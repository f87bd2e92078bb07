// Command perfbench is the repository benchmark: it drives the served
// system (internal/serve over loopback HTTP), the System facade and the
// IFLOW runtime under the adaptation controller from outside, through
// their public calls, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload hot-mix --seed 1 --seconds 60 --trace 0
//
// See README.md in this directory for the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hnp/internal/serve"
)

func main() {
	if list, ok := os.LookupEnv(chaosSetEnv); ok {
		os.Exit(chaosChild(list, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hot-mix or wide-mix")
	seed := fs.Int64("seed", 1, "seed every trace of the run is drawn from")
	secs := fs.Float64("seconds", 60, "seconds the run's phases are sized to")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs the traced replay and prints the per-layer metrics")
	spansDir := fs.String("spans-dir", filepath.Join(".bench_build", "spans"), "directory the traced replay's spans are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (hot-mix|wide-mix), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	res, err := bench(sp, *seed, *secs, *trace == 1, *spansDir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// failures collects the correctness checks a run failed.
type failures []string

func (f *failures) check(ok bool, format string, args ...any) {
	if !ok {
		*f = append(*f, fmt.Sprintf(format, args...))
	}
}

// A run makes rounds rounds. Of --seconds, the open loop, the closed loop
// and the batch steps take these shares, summed over the rounds; the rest
// goes to start-up, garbage collection between steps and the timed
// builds.
const (
	rounds                             = 10
	openShare, closedShare, batchShare = 0.30, 0.34, 0.24
)

// setupPerRound is how many times each round builds the served system
// only to time it, on top of the fresh server every replay builds.
const setupPerRound = 3

// round is one segment of each HTTP phase. ref and refClosed are the mean
// times of the reference work right before and right after the open-loop
// and the closed-loop segment.
type round struct {
	open, closed   *phaseStats
	ref, refClosed time.Duration
}

// measured is everything a run measured.
type measured struct {
	rounds       []round
	open, closed phaseStats // every round's segments merged
	replays      []*replay
	chaos        []*chaosRun
	setups       []time.Duration
}

// bench runs one workload. It serves two fresh systems over loopback
// HTTP, one for the open loop and one for the closed loop, and then runs
// rounds rounds. Each round runs a segment of the open loop, a segment
// of the closed loop, batch steps and a few timed builds of the served
// system. The batch steps are two untraced in-order replays of the trace
// on fresh servers, then chaos sets; a round runs them while the batch
// time so far is short of its share of the rounds so far. So every figure
// samples the shared host all through the run. Latencies and chaos-set
// times are divided by the host's speed, measured with the reference
// work right around them, and reported as medians over rounds or chaos
// sets; capacity is reported at capacityQuantile over rounds. A traced run
// adds the traced replay. bench returns an error only when the run could
// not be made; failed checks come back as Correct=false.
func bench(sp spec, seed int64, secs float64, traced bool, spansDir string, log io.Writer) (*result, error) {
	share := func(f float64) time.Duration { return time.Duration(secs * f * float64(time.Second)) }
	openDur, closedDur, batchDur := share(openShare), share(closedShare), share(batchShare)
	clients := runtime.NumCPU()

	var ms measured
	newServer := func() (*serve.Server, error) {
		t0 := time.Now()
		srv, err := serve.NewServer(serverConfig())
		ms.setups = append(ms.setups, time.Since(t0))
		return srv, err
	}
	openSrv, err := newServer()
	if err != nil {
		return nil, err
	}
	closedSrv, err := newServer()
	if err != nil {
		return nil, err
	}
	tr, err := buildTrace(sp, seed, openSrv.StreamNames(), serverConfig().Nodes, openDur)
	if err != nil {
		return nil, err
	}
	openPh := newPhase(sp, openSrv, tr, clients)
	defer openPh.close()
	closedPh := newPhase(sp, closedSrv, tr, clients)
	defer closedPh.close()

	var fails failures
	var batchTime time.Duration
	ref := newRefWork()
	ref.run() // the first run faults its memory in
	// batchStep runs the next batch step: a replay while fewer than two
	// have run, a chaos set after.
	batchStep := func() error {
		t0 := time.Now()
		defer func() { batchTime += time.Since(t0) }()
		// Every step starts from a collected heap, so the garbage of the
		// step before does not land in it.
		runtime.GC()
		if len(ms.replays) < 2 {
			srv, err := newServer()
			if err != nil {
				return err
			}
			runtime.GC()
			rp, err := replaySystem(sp, tr, srv)
			if err != nil {
				return err
			}
			ms.replays = append(ms.replays, rp)
			fmt.Fprintf(log, "replay: %.4f s busy\n", rp.busy.Seconds())
			return nil
		}
		cr, err := runChaosChild(sp.chaosSeeds)
		if err != nil {
			return err
		}
		ms.chaos = append(ms.chaos, cr)
		fmt.Fprintf(log, "chaos set: %.4f s CPU, %.4f s at reference speed (runs %v, reference work %v)\n",
			cr.cpuTotal().Seconds(), runSeconds([]*chaosRun{cr}), cr.CPU, cr.Ref)
		return nil
	}
	ms.rounds = make([]round, rounds)
	for r := range ms.rounds {
		rd := &ms.rounds[r]
		from, to := openDur*time.Duration(r)/rounds, openDur*time.Duration(r+1)/rounds
		last := r == rounds-1
		if last {
			to = math.MaxInt64
		}
		before := ref.run()
		rd.open = openPh.openLoop(from, to)
		between := ref.run()
		rd.closed = closedPh.closedLoop(closedDur / rounds)
		rd.ref, rd.refClosed = (before+between)/2, (between+ref.run())/2
		ms.open.merge(rd.open)
		ms.closed.merge(rd.closed)
		fmt.Fprintf(log, "round %d: %s\n", r, rd)
		for batchTime < batchDur*time.Duration(r+1)/rounds ||
			last && (len(ms.replays) < 2 || len(ms.chaos) < 2) {
			if err := batchStep(); err != nil {
				fails.check(false, "%v", err)
				return finish(fails, &ms, log), nil
			}
		}
		runtime.GC()
		for i := 0; i < setupPerRound; i++ {
			if _, err := newServer(); err != nil {
				return nil, err
			}
		}
	}

	for _, e := range append(ms.open.errs, ms.closed.errs...) {
		fails.check(false, "request failed: %v", e)
	}
	closedP99 := quantile(ms.closed.deploy, 0.99)
	fails.check(closedP99 < sp.limit, "capacity invalid: closed-loop deploy p99 %v over the %v limit", closedP99, sp.limit)
	a := ms.replays[0]
	for _, b := range ms.replays[1:] {
		fails.check(a.costPerDeploy() == b.costPerDeploy(), "in-order replays disagree on cost_per_deploy: %v vs %v",
			a.costPerDeploy(), b.costPerDeploy())
		if err := sameDeploys(a.deploys, b.deploys); err != nil {
			fails.check(false, "in-order replays disagree: %v", err)
		}
	}
	for _, c := range ms.chaos[1:] {
		fails.check(c.sameOutcome(ms.chaos[0]), "two runs of the chaos set shipped %v and %v bytes in %d and %d migrations",
			ms.chaos[0].Bytes, c.Bytes, ms.chaos[0].Migrations, c.Migrations)
	}

	var spans *spanLog
	if traced {
		srv, err := newServer()
		if err != nil {
			return nil, err
		}
		var deps []deployRec
		spans, deps, err = replayTraced(sp, tr, srv)
		if err != nil {
			fails.check(false, "%v", err)
		} else {
			if err := sameDeploys(a.deploys, deps); err != nil {
				fails.check(false, "traced replay differs from the System replay: %v", err)
			}
			path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
			if err := spans.write(path); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}

	res := finish(fails, &ms, log)
	m := res.Metrics
	if traced {
		layerMetrics(m, tr, &ms, spans)
		return res, nil
	}
	m["setup_s"] = metric{median(ms.setups).Seconds(), "s"}
	m["p50_ms"] = metric{median(perRound(ms.rounds, round.p50)), "ms"}
	m["undeploy_p50_ms"] = metric{median(perRound(ms.rounds, round.undeployP50)), "ms"}
	m["capacity_rps"] = metric{quantile(perRound(ms.rounds, round.capacity), capacityQuantile), "req/s"}
	m["cost_per_deploy"] = metric{a.costPerDeploy(), "cost/s"}
	m["run_s"] = metric{runSeconds(ms.chaos), "s"}
	m["shipped_mb"] = metric{ms.chaos[0].Bytes / 1e6, "MB"}
	return res, nil
}

// The per-round latencies at the reference speed of the host: as
// measured, times refNominal over the round's reference time (see
// README.md). NaN when the round saw no such request.
func (rd round) p50() float64         { return rd.atRef(roundQuantile(rd.open.deploy, 0.50)) }
func (rd round) p99() float64         { return rd.atRef(roundQuantile(rd.open.deploy, 0.99)) }
func (rd round) undeployP50() float64 { return rd.atRef(roundQuantile(rd.open.undeploy, 0.50)) }

func (rd round) atRef(x float64) float64 { return x * refNominal.Seconds() / rd.ref.Seconds() }

func roundQuantile(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return math.NaN()
	}
	return msOf(quantile(lat, q))
}

// capacityQuantile is the quantile over rounds at which a run reports
// capacity_rps. The shared host's speed drifts, and a slow stretch only
// ever lowers a round's capacity, so a run reports one of its quicker
// rounds. A slowdown the program causes itself shows in every round and
// still moves the figure.
const capacityQuantile = 0.75

// capacity is the closed loop's successful requests per second of the
// time the VM had its vCPUs (the segment's elapsed time less what the
// hypervisor gave other guests), at the reference speed of the host (see
// README.md).
func (rd round) capacity() float64 {
	return rd.capacityMeasured() * rd.refClosed.Seconds() / refNominal.Seconds()
}

func (rd round) capacityMeasured() float64 {
	return float64(rd.closed.ok) / (rd.closed.elapsed - rd.closed.stolen).Seconds()
}

func (rd round) String() string {
	return fmt.Sprintf("as measured: p50 %.4f ms, undeploy p50 %.4f ms, p99 %.4f ms, capacity %.0f req/s "+
		"(%.0f req/s of wall time, %.1f%% stolen); reference work %v, %v; "+
		"at reference speed: p50 %.4f ms, undeploy p50 %.4f ms, p99 %.4f ms, capacity %.0f req/s",
		roundQuantile(rd.open.deploy, 0.50), roundQuantile(rd.open.undeploy, 0.50), roundQuantile(rd.open.deploy, 0.99),
		rd.capacityMeasured(), float64(rd.closed.ok)/rd.closed.elapsed.Seconds(),
		100*rd.closed.stolen.Seconds()/rd.closed.elapsed.Seconds(), rd.ref, rd.refClosed,
		rd.p50(), rd.undeployP50(), rd.p99(), rd.capacity())
}

// finish makes the run's result from its failed checks and the requests
// made so far, and writes each failed check to log.
func finish(fails failures, ms *measured, log io.Writer) *result {
	res := &result{Correct: len(fails) == 0, Metrics: map[string]metric{}}
	for _, rd := range ms.rounds {
		for _, st := range []*phaseStats{rd.open, rd.closed} {
			if st != nil {
				res.Attempted += st.attempted
				res.Failed += st.failed()
			}
		}
	}
	res.Attempted = max(res.Attempted, 1)
	for _, f := range fails {
		fmt.Fprintf(log, "perfbench: check failed: %s\n", f)
	}
	return res
}

// layerMetrics fills the per-layer metrics of a traced run. Metrics of a
// layer the workload does not exercise read 0 (see README.md).
func layerMetrics(m map[string]metric, tr []event, ms *measured, spans *spanLog) {
	a := ms.replays[0]
	open, closed := &ms.open, &ms.closed
	repeat, wide := traceProps(tr, a)
	m["workload.lag_p99_ms"] = metric{msOf(quantile(open.lag, 0.99)), "ms"}
	m["workload.repeat_frac"] = metric{repeat, "ratio"}
	m["workload.wide_frac"] = metric{wide, "ratio"}

	m["p99_ms"] = metric{median(perRound(ms.rounds, round.p99)), "ms"}
	m["error_frac"] = metric{ratio(float64(open.failed()+closed.failed()), float64(open.attempted+closed.attempted)), "ratio"}
	m["serve.wire_us_p50"] = metric{us(quantile(open.wire, 0.50)), "us"}
	m["serve.wire_us_p99"] = metric{us(quantile(open.wire, 0.99)), "us"}
	m["serve.server_us_p50"] = metric{us(quantile(open.server, 0.50)), "us"}
	m["serve.server_us_p99"] = metric{us(quantile(open.server, 0.99)), "us"}
	m["serve.rejected"] = metric{float64(open.rejected + closed.rejected), "count"}
	m["serve.errors"] = metric{float64(open.errors + closed.errors), "count"}

	m["hnp.deploy_us_p50"] = metric{us(quantile(a.deployLat, 0.50)), "us"}
	m["hnp.deploy_us_p99"] = metric{us(quantile(a.deployLat, 0.99)), "us"}
	m["hnp.undeploy_us_p50"] = metric{us(quantile(a.undeployLat, 0.50)), "us"}
	m["hnp.refresh_us_p50"] = metric{us(quantile(a.refresh, 0.50)), "us"}

	c := a.snap.Counters
	m["hierarchy.cover_hit_frac"] = metric{ratio(float64(c["hierarchy.cover_hits"]),
		float64(c["hierarchy.cover_hits"]+c["hierarchy.cover_misses"])), "ratio"}
	m["hierarchy.clusters_reaudited_per_refresh"] = metric{ratio(float64(c["hierarchy.rebind_clusters_reaudited"]),
		float64(len(a.refresh))), "count"}
	m["netgraph.refresh_incremental_frac"] = metric{ratio(float64(c["paths.refresh_incremental"]),
		float64(c["paths.refresh_incremental"]+c["paths.refresh_full"])), "ratio"}

	n := float64(len(a.deploys))
	m["rewrite.bytes_frac"] = metric{ratio(a.bytesAfter, a.bytesBefore), "ratio"}
	m["core.plans_per_deploy"] = metric{ratio(a.plans, n), "count"}
	m["core.steps_per_deploy"] = metric{ratio(float64(a.steps), n), "count"}
	m["ads.reuse_leaf_frac"] = metric{ratio(float64(a.derived), float64(a.leaves)), "ratio"}
	m["ads.registry_len_max"] = metric{float64(a.registryMax), "count"}
	m["ads.orphaned_leaves"] = metric{float64(a.orphaned), "count"}

	if spans != nil {
		m["cql.parse_us_p50"] = metric{us(quantile(spans.selfTimes("cql.parse"), 0.50)), "us"}
		m["rewrite.apply_us_p50"] = metric{us(quantile(spans.selfTimes("rewrite.apply"), 0.50)), "us"}
		plan := spans.selfTimes("core.plan")
		m["core.plan_us_p50"] = metric{us(quantile(plan, 0.50)), "us"}
		m["core.plan_us_p99"] = metric{us(quantile(plan, 0.99)), "us"}
		m["ads.advertise_us_p50"] = metric{us(quantile(spans.selfTimes("ads.advertise"), 0.50)), "us"}
		m["ads.prune_us_p50"] = metric{us(quantile(spans.selfTimes("ads.prune"), 0.50)), "us"}
		m["trace.coverage_frac"] = metric{spans.coverage(), "ratio"}
		m["trace.overhead_frac"] = metric{ratio(spans.busy().Seconds(), a.busy.Seconds()) - 1, "ratio"}
	}

	cs := ms.chaos[0]
	m["iflow.tuples_per_s"] = metric{ratio(float64(cs.Tuples), runSeconds(ms.chaos)), "1/s"}
	m["iflow.tuples_transferred"] = metric{float64(cs.Tuples), "count"}
	m["iflow.migrations"] = metric{float64(cs.Migrations), "count"}
	m["iflow.ops_churned"] = metric{float64(cs.OpsChurned), "count"}
	m["adapt.checks"] = metric{float64(cs.Adapt.Checks), "count"}
	m["adapt.replans"] = metric{float64(cs.Adapt.Replans), "count"}
	m["adapt.migrations_triggered"] = metric{float64(cs.Adapt.Migrations), "count"}
	m["adapt.migrations_suppressed"] = metric{float64(cs.Adapt.Suppressed()), "count"}
}

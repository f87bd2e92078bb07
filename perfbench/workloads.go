package main

import (
	"fmt"
	"math/rand"
	"time"

	"hnp/internal/netgraph"
	"hnp/internal/serve"
	"hnp/internal/workload"
)

// Event kinds of a benchmark trace.
const (
	evDeploy = iota
	evUndeploy
	// evRefresh applies one seeded link-cost batch to every shard and
	// refreshes each shard's System, while no request is in flight.
	evRefresh
)

// event is one step of a benchmark trace. due is the offset from the
// phase start at which the open-loop generator must send it.
type event struct {
	due    time.Duration
	kind   int
	tenant string
	cql    string
	sink   int
	batch  int // evRefresh: index of the batch within one trace pass
}

// spec defines one workload: the traffic shape, how fast it is offered,
// and how a run's --seconds are split between the phases.
type spec struct {
	name string
	// shape returns the workload.TraceConfig traffic is drawn with.
	shape func(seed int64) workload.TraceConfig
	// poolSeed pins the workload's statement templates: they are the
	// templates workload.SynthesizeTrace draws for shape(poolSeed), while
	// --seed draws the arrivals, template choices, tenants, sinks and
	// undeploys over them. A seed-drawn pool would make a run's figures
	// hang on which template the seed makes hottest (hot-mix's mean plan
	// cost varies 6x between pools).
	poolSeed int64
	// distinct makes every deploy of a trace pass a different template:
	// the k-th deploy takes template perm[k mod Templates] of a seeded
	// permutation instead of the synthesized choice. Each run then plans
	// nearly the same statements in a different order, so a run's plan
	// work does not hang on which heavy templates the seed happens to
	// draw, and the trace has no exact repeats.
	distinct bool
	// maxLive, when positive, bounds the live deployments of one pass of
	// the trace: a deploy that would exceed it is preceded by an undeploy
	// of the oldest.
	maxLive int
	// rate is the pinned open-loop offered rate in requests per second:
	// an eighth to a ninth of what this workload's closed loop sustains
	// on a 2-vCPU host, so that the generator's clients rarely queue.
	rate float64
	// limit is the closed-loop deploy p99 under which capacity_rps is
	// valid.
	limit time.Duration
	// refreshes link-cost batches are spread evenly over one trace pass,
	// each changing linksPerChange links on every shard.
	refreshes int
	// chaosSeeds is the fixed rate-shift seed set a chaos set runs.
	chaosSeeds []int64
}

// serverConfig is the served system every serving phase builds: the
// standard 4-shard, 128-node, Top-Down serving shape. Its topology seed
// is fixed; --seed drives only the traffic.
func serverConfig() serve.Config { return serve.DefaultConfig() }

// rateShiftSeeds are the chaos.RateShiftConfig seeds the adapt.Controller
// is validated on; every run of every workload runs them as its chaos set.
var rateShiftSeeds = []int64{3, 6, 8, 9}

// Two workloads, each run for 60 s. The host the benchmark was tuned on
// drifts in speed by up to 2x over 30-60 s, and only runs this long keep
// the figures' run-to-run spread well under their bounds (see README.md).
// So the other layers ride on these two: link-cost changes with
// System.Refresh on wide-mix, and the rate-shift chaos set (the IFLOW
// runtime under the adaptation controller) in every run of both.
var specs = []spec{
	{
		// hot-mix: the ServeSteady shape (12 templates, Zipf 1.1, 2-4
		// sources, 4 tenants, 15% undeploys). Exact repeats dominate and
		// planning is under half of the round trip, so the wire path
		// (HTTP + JSON) and the repeated parse/rewrite/plan of identical
		// statements carry the load. An exact-reuse cache shows its gain
		// here. Predicted dominant layers: serve (wire), then core.
		name:  "hot-mix",
		shape: workload.DefaultTrace, poolSeed: 1,
		rate: 1500, limit: 50 * time.Millisecond,
		chaosSeeds: rateShiftSeeds,
	},
	{
		// wide-mix: a uniform mix over 6000 templates of 4-6 sources,
		// most with a predicate, each deployed at most once per trace
		// pass, with 15% undeploys and at most 400 deployments live. The
		// live set reaches 400 a sixth into the trace; from then on
		// deploys and undeploys balance. Offered at 200 req/s, a ninth of
		// capacity: at 400 req/s, stretches of heavy steal on the shared
		// host queued requests behind the two clients and quadrupled the
		// open-loop latencies. (A deploy's plan cost grows about
		// 4x from an empty registry to 400 live deployments, so an
		// unbounded live set would make the figures hang on the run's
		// length.) No exact repeats, so caching cannot help; core planning
		// is most of the round trip and sets the tail. Planner and budget
		// changes show here. It also carries writes beside reads: twenty
		// times per trace pass a seeded link-cost change on every shard,
		// followed by System.Refresh, applied while the generator holds
		// new requests. One link per change keeps both refresh paths in
		// use: some refreshes repair incrementally, the rest recompute in
		// full (with 3 or more links every refresh is full). A cache pays
		// its invalidation cost here, and cost_per_deploy catches stale
		// plans. Predicted dominant layer: core, with hnp Refresh in the
		// tail.
		name: "wide-mix",
		shape: func(seed int64) workload.TraceConfig {
			c := workload.DefaultTrace(seed)
			c.Templates, c.MixSkew = 6000, 0
			c.MinSources, c.MaxSources = 4, 6
			c.PredProb = 0.9
			return c
		},
		poolSeed: 2, distinct: true, maxLive: 400,
		rate: 200, limit: 100 * time.Millisecond, refreshes: 20,
		chaosSeeds: rateShiftSeeds,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// templatePool returns the statement text of every template index of
// shape(poolSeed), read off synthesized traces made longer until each
// template has been drawn. A template's text depends only on the seed
// and the shape, not on the trace's length.
func templatePool(shape workload.TraceConfig, names []string, nodes int) ([]string, error) {
	pool := make([]string, shape.Templates)
	missing := len(pool)
	shape.Rate = 100
	for shape.Duration = float64(shape.Templates) / 10; missing > 0; shape.Duration *= 2 {
		if shape.Duration > 1e5 {
			return nil, fmt.Errorf("pool seed %d: %d templates never drawn", shape.Seed, missing)
		}
		tr, err := workload.SynthesizeTrace(shape, names, nodes)
		if err != nil {
			return nil, err
		}
		for _, ev := range tr.Events {
			if ev.Kind == workload.KindDeploy && pool[ev.Template] == "" {
				pool[ev.Template] = ev.CQL
				missing--
			}
		}
	}
	return pool, nil
}

// buildTrace draws the workload's trace from the seed: sized to fill the
// open-loop phase at the pinned rate, with the synthesized Poisson
// arrival gaps scaled to that rate.
func buildTrace(sp spec, seed int64, names []string, nodes int, open time.Duration) ([]event, error) {
	pool, err := templatePool(sp.shape(sp.poolSeed), names, nodes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := sp.shape(rng.Int63())
	cfg.Rate = 100
	cfg.Duration = max(sp.rate*open.Seconds(), 1) / cfg.Rate
	tr, err := workload.SynthesizeTrace(cfg, names, nodes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	perm := rng.Perm(len(pool))
	// Wall seconds per trace second, so that the whole trace is offered
	// at sp.rate.
	scale := float64(len(tr.Events)) / cfg.Duration / sp.rate
	every := 0
	if sp.refreshes > 0 {
		every = max(len(tr.Events)/(sp.refreshes+1), 1)
	}
	out := make([]event, 0, len(tr.Events)+sp.refreshes)
	k, live := 0, 0
	for i, ev := range tr.Events {
		due := time.Duration(ev.At * scale * float64(time.Second))
		if every > 0 && i > 0 && i%every == 0 && i/every <= sp.refreshes {
			out = append(out, event{due: due, kind: evRefresh, batch: i/every - 1})
		}
		e := event{due: due, tenant: ev.Tenant, sink: ev.Sink, kind: evUndeploy}
		if ev.Kind == workload.KindDeploy {
			if sp.distinct {
				ev.Template = perm[k%len(perm)]
				k++
			}
			e.kind, e.cql = evDeploy, pool[ev.Template]
			if sp.maxLive > 0 && live >= sp.maxLive {
				out = append(out, event{due: due, kind: evUndeploy})
				live--
			}
			live++
		} else if live > 0 {
			live--
		}
		out = append(out, e)
	}
	return out, nil
}

// linksPerChange is how many links one link-cost change touches. With
// one, some of wide-mix's refreshes repair the paths incrementally and the
// rest recompute in full; with three or more, every refresh is full.
const linksPerChange = 1

// linkBatch is one seeded link-cost change set, applied identically to
// every shard's graph.
type linkBatch []netgraph.Link

// batchFor draws the link-cost batch for trace pass `pass`, batch index
// b: linksPerChange distinct links of the base topology, each set to its base
// cost times a factor in [0.5, 2). Like the template pool, the schedule is
// pinned by the workload's pool seed (which links a batch hits moves the
// mean plan cost by a quarter between draws); each pass draws anew, so a
// closed loop that wraps the trace keeps changing the network.
func batchFor(sp spec, pass, b int, base []netgraph.Link) linkBatch {
	rng := rand.New(rand.NewSource(sp.poolSeed ^ int64(pass)<<32 ^ int64(b+1)*0x9e3779b9))
	perm := rng.Perm(len(base))
	out := make(linkBatch, 0, linksPerChange)
	for _, i := range perm[:min(linksPerChange, len(base))] {
		l := base[i]
		l.Cost *= 0.5 + 1.5*rng.Float64()
		out = append(out, l)
	}
	return out
}

// applyBatch sets the batch's link costs on every shard and refreshes
// each shard's System, returning each shard's Refresh duration. The
// caller must hold every planner out (the System contract for graph
// mutation).
func applyBatch(srv *serve.Server, lb linkBatch) ([]time.Duration, error) {
	var took []time.Duration
	for i := 0; i < srv.NumShards(); i++ {
		sys := srv.Shard(i)
		for _, l := range lb {
			if err := sys.Graph.SetLinkCost(l.A, l.B, l.Cost); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
		t0 := time.Now()
		sys.Refresh()
		took = append(took, time.Since(t0))
	}
	return took, nil
}

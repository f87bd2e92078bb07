package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hnp"
	"hnp/internal/ads"
	"hnp/internal/core"
	"hnp/internal/cql"
	"hnp/internal/query/rewrite"
	"hnp/internal/serve"
)

// deployRec is one deploy of an in-order replay, kept to compare replays.
type deployRec struct {
	plan string
	cost float64
}

// replay is the outcome of one single-threaded, in-order replay of the
// trace against a fresh server's shards, routed as the server routes.
type replay struct {
	deploys []deployRec
	// busy is the summed duration of the replayed calls.
	busy                            time.Duration
	deployLat, undeployLat, refresh []time.Duration
	sources                         []int // per deploy
	registryMax                     int   // largest shard registry seen
	leaves, derived                 int
	plans                           float64 // Σ Result.PlansConsidered
	steps                           int     // Σ PlanStep nodes
	bytesBefore, bytesAfter         float64
	orphaned                        int
	snap                            hnp.Snapshot // shard snapshots summed
}

// costPerDeploy is the mean marginal communication cost of a deploy.
func (r *replay) costPerDeploy() float64 {
	sum := 0.0
	for _, d := range r.deploys {
		sum += d.cost
	}
	return sum / float64(max(len(r.deploys), 1))
}

// live is a deployment the replay has not retired yet.
type live struct {
	shard int
	dep   hnp.Deployment
}

// replaySystem replays the trace through the System facade
// (DeployCQL/Undeploy/Refresh), the single-threaded baseline of a served
// deploy.
func replaySystem(sp spec, trace []event, srv *serve.Server) (*replay, error) {
	r := &replay{}
	base := srv.Shard(0).Graph.Links()
	var fifo []live
	for _, ev := range trace {
		switch ev.kind {
		case evDeploy:
			si := srv.ShardFor(ev.tenant, ev.cql)
			sys := srv.Shard(si)
			t0 := time.Now()
			d, err := sys.DeployCQL(ev.cql, hnp.NodeID(ev.sink), hnp.AlgoTopDown)
			took := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("replay: deploy %q: %w", ev.cql, err)
			}
			if d.Plan == nil {
				return nil, fmt.Errorf("replay: deploy %q: empty plan", ev.cql)
			}
			r.busy += took
			r.deployLat = append(r.deployLat, took)
			r.note(sys, d)
			fifo = append(fifo, live{si, d})
		case evUndeploy:
			if len(fifo) == 0 {
				continue
			}
			l := fifo[0]
			fifo = fifo[1:]
			t0 := time.Now()
			srv.Shard(l.shard).Undeploy(l.dep)
			took := time.Since(t0)
			r.busy += took
			r.undeployLat = append(r.undeployLat, took)
		case evRefresh:
			took, err := applyBatch(srv, batchFor(sp, 0, ev.batch, base))
			if err != nil {
				return nil, err
			}
			for _, d := range took {
				r.busy += d
			}
			r.refresh = append(r.refresh, took...)
		}
	}
	r.orphaned = orphanedLeaves(srv, fifo)
	r.snap = hnp.Snapshot{Counters: map[string]int64{}}
	for i := 0; i < srv.NumShards(); i++ {
		for k, v := range srv.Shard(i).Snapshot().Counters {
			r.snap.Counters[k] += v
		}
	}
	return r, nil
}

// note records a deploy's plan-shape counts and the registry's size.
func (r *replay) note(sys *hnp.System, d hnp.Deployment) {
	r.deploys = append(r.deploys, deployRec{plan: d.Plan.String(), cost: d.Cost})
	r.sources = append(r.sources, len(d.Query.Sources))
	for _, l := range d.Plan.Leaves() {
		r.leaves++
		if l.In != nil && l.In.Derived {
			r.derived++
		}
	}
	r.plans += d.PlansConsidered
	r.steps += countSteps(d.Trace)
	if d.Rewrite != nil {
		r.bytesBefore += d.Rewrite.BytesBefore
		r.bytesAfter += d.Rewrite.BytesAfter
	}
	r.registryMax = max(r.registryMax, sys.Registry.Len())
}

func countSteps(st *core.PlanStep) int {
	if st == nil {
		return 0
	}
	n := 1
	for _, ch := range st.Children {
		n += countSteps(ch)
	}
	return n
}

// orphanedLeaves counts the derived leaves of live deployments whose
// advertisement the shard's registry no longer finds at the leaf's node:
// streams a live plan consumes that planners are no longer offered.
func orphanedLeaves(srv *serve.Server, deps []live) int {
	n := 0
	for _, l := range deps {
		reg := srv.Shard(l.shard).Registry
		for _, leaf := range l.dep.Plan.Leaves() {
			if leaf.In == nil || !leaf.In.Derived {
				continue
			}
			sig := leaf.In.Sig
			if leaf.In.BaseSig != "" {
				sig = leaf.In.BaseSig
			}
			found := false
			for _, ad := range reg.Lookup(sig) {
				found = found || ad.Node == leaf.In.Loc
			}
			if !found {
				n++
			}
		}
	}
	return n
}

// span is one timed call of the traced replay. Spans of one request share
// Req; Parent is the index of the enclosing span, -1 for a request root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// spanLog keeps spans in memory for the whole replay.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name string, req, parent int) int {
	l.spans = append(l.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) { l.spans[i].End = int64(time.Since(l.t0)) }

// finish computes every span's self time: its duration minus the
// durations of its children (children never overlap in this replay).
func (l *spanLog) finish() {
	for i := range l.spans {
		l.spans[i].Self += l.spans[i].End - l.spans[i].Start
		if p := l.spans[i].Parent; p >= 0 {
			l.spans[p].Self -= l.spans[i].End - l.spans[i].Start
		}
	}
}

// selfTimes returns the self times of the spans with the given name.
func (l *spanLog) selfTimes(name string) []time.Duration {
	var out []time.Duration
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.Self))
		}
	}
	return out
}

// coverage is the share of traced deploy time spent inside the layer
// spans under each deploy root, rather than in the replay's own glue.
func (l *spanLog) coverage() float64 {
	var total, self int64
	for _, s := range l.spans {
		if s.Name == "deploy" {
			total += s.End - s.Start
			self += s.Self
		}
	}
	if total == 0 {
		return 0
	}
	return float64(total-self) / float64(total)
}

// busy is the summed duration of every request root.
func (l *spanLog) busy() time.Duration {
	var d int64
	for _, s := range l.spans {
		if s.Parent < 0 {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayTraced replays the trace making, on each shard, the public calls
// a served deploy makes (cql.Parse, Statement.Query, rewrite.Apply,
// core.TopDownOpts, Registry.AdvertisePlan; Registry.Prune for
// undeploys), each inside its own span. Query IDs are allocated per shard
// in arrival order, as System allocates them, so plans match replaySystem
// exactly.
func replayTraced(sp spec, trace []event, srv *serve.Server) (*spanLog, []deployRec, error) {
	log := &spanLog{t0: time.Now()}
	nextID := make([]int, srv.NumShards())
	base := srv.Shard(0).Graph.Links()
	type owned struct{ shard, qid int }
	var fifo []owned
	var deps []deployRec
	for req, ev := range trace {
		switch ev.kind {
		case evDeploy:
			si := srv.ShardFor(ev.tenant, ev.cql)
			sys := srv.Shard(si)
			root := log.begin("deploy", req, -1)
			s := log.begin("cql.parse", req, root)
			st, err := cql.Parse(sys.Catalog, ev.cql)
			log.end(s)
			if err != nil {
				return nil, nil, fmt.Errorf("traced replay: %w", err)
			}
			qid := nextID[si]
			nextID[si]++
			s = log.begin("cql.query", req, root)
			q, err := st.Query(qid, hnp.NodeID(ev.sink))
			log.end(s)
			if err != nil {
				return nil, nil, fmt.Errorf("traced replay: %w", err)
			}
			if rewrite.Enabled() {
				s = log.begin("rewrite.apply", req, root)
				out := rewrite.Apply(sys.Catalog, q, st.Pushdown())
				log.end(s)
				if out.NoOp {
					log.end(root)
					return nil, nil, fmt.Errorf("traced replay: %q folded to a no-op plan", ev.cql)
				}
			}
			s = log.begin("core.plan", req, root)
			res, err := core.TopDownOpts(sys.Hierarchy, sys.Catalog, q, sys.Registry, core.Options{Obs: sys.Obs})
			log.end(s)
			if err != nil {
				return nil, nil, fmt.Errorf("traced replay: %w", err)
			}
			s = log.begin("ads.advertise", req, root)
			sys.Registry.AdvertisePlan(q, res.Plan)
			log.end(s)
			log.end(root)
			deps = append(deps, deployRec{plan: res.Plan.String(), cost: res.Cost})
			fifo = append(fifo, owned{si, qid})
		case evUndeploy:
			if len(fifo) == 0 {
				continue
			}
			o := fifo[0]
			fifo = fifo[1:]
			root := log.begin("undeploy", req, -1)
			s := log.begin("ads.prune", req, root)
			srv.Shard(o.shard).Registry.Prune(func(ad ads.Ad) bool { return ad.QueryID != o.qid })
			log.end(s)
			log.end(root)
		case evRefresh:
			root := log.begin("refresh", req, -1)
			s := log.begin("hnp.refresh", req, root)
			_, err := applyBatch(srv, batchFor(sp, 0, ev.batch, base))
			log.end(s)
			log.end(root)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	log.finish()
	return log, deps, nil
}

// sameDeploys reports the first deploy where two replays disagree.
func sameDeploys(a, b []deployRec) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d deploys vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("deploy %d: plan %s cost %v vs plan %s cost %v", i, a[i].plan, a[i].cost, b[i].plan, b[i].cost)
		}
	}
	return nil
}

// wideSources is the source count from which a deploy counts as wide.
const wideSources = 5

// traceProps returns the trace's repeat share (deploys whose statement
// text appeared before) and wide share (deploys with at least
// wideSources sources).
func traceProps(trace []event, r *replay) (repeat, wide float64) {
	seen := map[string]bool{}
	deploys, repeats := 0, 0
	for _, ev := range trace {
		if ev.kind != evDeploy {
			continue
		}
		deploys++
		if seen[ev.cql] {
			repeats++
		}
		seen[ev.cql] = true
	}
	w := 0
	for _, k := range r.sources {
		if k >= wideSources {
			w++
		}
	}
	return ratio(float64(repeats), float64(deploys)), ratio(float64(w), float64(len(r.sources)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

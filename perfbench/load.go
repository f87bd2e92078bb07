package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"hnp/internal/netgraph"
	"hnp/internal/serve"
)

// client is the generator's HTTP side: one transport capped at `conns`
// connections to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost, tr.MaxIdleConnsPerHost, tr.MaxIdleConns = conns, conns, conns
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// post sends one request and decodes a 200 reply into out. A non-200
// status comes back with its code; a transport failure with code 0.
func (c *client) post(path string, body []byte, out any) (int, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s: decoding reply: %w", path, err)
	}
	return resp.StatusCode, nil
}

// deploy sends one deploy; anything but a 200 carrying a plan is an error.
func (c *client) deploy(ev event) (serve.DeployResponse, int, error) {
	body, err := json.Marshal(serve.DeployRequest{CQL: ev.cql, Sink: ev.sink, Tenant: ev.tenant})
	if err != nil {
		return serve.DeployResponse{}, 0, err
	}
	var dr serve.DeployResponse
	code, err := c.post("/deploy", body, &dr)
	if err == nil && dr.Plan == "" {
		err = fmt.Errorf("/deploy: 200 with an empty plan for %q", ev.cql)
	}
	return dr, code, err
}

func (c *client) undeploy(id int64) (int, error) {
	var reply map[string]any
	return c.post(fmt.Sprintf("/undeploy?id=%d", id), nil, &reply)
}

// idQueue holds outstanding deployment IDs; undeploys retire the oldest,
// as smqd's own harness does.
type idQueue struct {
	mu  sync.Mutex
	ids []int64
}

func (q *idQueue) push(id int64) {
	q.mu.Lock()
	q.ids = append(q.ids, id)
	q.mu.Unlock()
}

func (q *idQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ids)
}

func (q *idQueue) pop() (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ids) == 0 {
		return 0, false
	}
	id := q.ids[0]
	q.ids = q.ids[1:]
	return id, true
}

// phaseStats is what one segment of an HTTP phase observed. Each client
// goroutine fills its own and the segment merges them.
type phaseStats struct {
	deploy, undeploy []time.Duration // request latency
	wire, server     []time.Duration // deploy round trip minus plan_latency_ns, and plan_latency_ns
	lag              []time.Duration // open loop: how late an idle client's sleep woke
	attempted        int
	rejected         int // HTTP 429
	errors           int // transport errors and other non-200 replies
	ok               int // successful deploys plus undeploys
	errs             []error
	elapsed          time.Duration // from the segment's start to its last reply
	stolen           time.Duration // closed loop: vCPU time the hypervisor took over elapsed, per vCPU
}

func (p *phaseStats) merge(o *phaseStats) {
	p.deploy = append(p.deploy, o.deploy...)
	p.undeploy = append(p.undeploy, o.undeploy...)
	p.wire = append(p.wire, o.wire...)
	p.server = append(p.server, o.server...)
	p.lag = append(p.lag, o.lag...)
	p.attempted += o.attempted
	p.rejected += o.rejected
	p.errors += o.errors
	p.ok += o.ok
	p.errs = append(p.errs, o.errs...)
}

func (p *phaseStats) failed() int { return p.rejected + p.errors }

// fail records a failed request, keeping the first few messages.
func (p *phaseStats) fail(code int, err error) {
	if code == http.StatusTooManyRequests {
		p.rejected++
	} else {
		p.errors++
	}
	if len(p.errs) < 3 {
		p.errs = append(p.errs, err)
	}
}

// phase drives one served system over loopback HTTP, in segments, with
// `clients` goroutines sharing one transport of as many connections. Its
// position in the trace carries over from one segment to the next. Graph
// mutations (evRefresh) take hold exclusively: the generator holds new
// requests until the in-flight ones finish, mutates and refreshes every
// shard, then releases them.
type phase struct {
	sp      spec
	srv     *serve.Server
	ts      *httptest.Server
	c       *client
	clients int
	base    []netgraph.Link // the topology's links before any batch
	trace   []event
	liveCap int // closed loop: most deployments kept live
	hold    sync.RWMutex
	ids     idQueue
	mu      sync.Mutex
	next    int // index of the next trace event (open loop: within the trace; closed loop: wrapping)
}

// newPhase serves srv on a loopback listener.
func newPhase(sp spec, srv *serve.Server, trace []event, clients int) *phase {
	ts := httptest.NewServer(srv)
	return &phase{
		sp: sp, srv: srv, ts: ts, c: newClient(ts.URL, clients), clients: clients,
		base: srv.Shard(0).Graph.Links(), trace: trace, liveCap: liveAtEnd(trace),
	}
}

// liveAtEnd is how many deployments are live after one in-order pass of
// the trace from an empty system.
func liveAtEnd(trace []event) int {
	n := 0
	for _, ev := range trace {
		switch {
		case ev.kind == evDeploy:
			n++
		case ev.kind == evUndeploy && n > 0:
			n--
		}
	}
	return n
}

// close stops the listener and drops the client's connections.
func (ph *phase) close() {
	ph.c.hc.CloseIdleConnections()
	ph.ts.Close()
}

// take returns the next trace event, or false when ok rejects it (the
// event then stays next).
func (ph *phase) take(ok func(i int) bool) (int, bool) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if !ok(ph.next) {
		return 0, false
	}
	ph.next++
	return ph.next - 1, true
}

// send issues one trace event. Latency is measured from `from`: the due
// time or the actual send in the open loop, the send in the closed loop.
func (ph *phase) send(ev event, pass int, from time.Time, st *phaseStats) {
	if ev.kind == evRefresh {
		ph.hold.Lock()
		_, err := applyBatch(ph.srv, batchFor(ph.sp, pass, ev.batch, ph.base))
		ph.hold.Unlock()
		if err != nil {
			st.errs = append(st.errs, err)
			st.errors++
		}
		return
	}
	ph.hold.RLock()
	defer ph.hold.RUnlock()
	switch ev.kind {
	case evDeploy:
		st.attempted++
		sent := time.Now()
		dr, code, err := ph.c.deploy(ev)
		done := time.Now()
		if err != nil {
			st.fail(code, err)
			return
		}
		st.ok++
		st.deploy = append(st.deploy, done.Sub(from))
		st.wire = append(st.wire, done.Sub(sent)-time.Duration(dr.PlanLatencyNs))
		st.server = append(st.server, time.Duration(dr.PlanLatencyNs))
		ph.ids.push(dr.ID)
	case evUndeploy:
		id, ok := ph.ids.pop()
		if !ok {
			return // the deploy it would retire has not been answered yet
		}
		st.attempted++
		code, err := ph.c.undeploy(id)
		done := time.Now()
		if err != nil {
			st.fail(code, err)
			return
		}
		st.ok++
		st.undeploy = append(st.undeploy, done.Sub(from))
	}
}

// openLoop offers the trace events due in [from, to) of trace time, with
// trace time `from` at the segment's start. Each client takes the next
// event and sleeps until it is due. A request is timed from its due time
// when its client was still busy then, so a stall counts against every
// request queued behind it. When the client was idle at the due time, the
// request is timed from its actual send: how late the client's own sleep
// woke (the host's wake-up latency, which a client on another machine
// would not share with the server) is the generator's lag, reported on
// its own.
func (ph *phase) openLoop(from, to time.Duration) *phaseStats {
	start := time.Now()
	return ph.run(start, func(st *phaseStats) bool {
		i, ok := ph.take(func(i int) bool { return i < len(ph.trace) && ph.trace[i].due < to })
		if !ok {
			return false
		}
		ev := ph.trace[i]
		due := start.Add(ev.due - from)
		idle := time.Now().Before(due)
		sleepUntil(due)
		sendAt := due
		if idle && ev.kind != evRefresh {
			sendAt = time.Now()
			st.lag = append(st.lag, sendAt.Sub(due))
		}
		ph.send(ev, 0, sendAt, st)
		return true
	})
}

// closedLoop replays the trace in order, wrapping around, with each
// client sending its next request as soon as the previous one is
// answered, until dur has elapsed. Once liveCap deployments are live, a
// client retires the oldest before each deploy, so the server's state
// stays at the size one pass of the trace leaves behind however fast it
// runs. Each pass after the first moves every deploy's sink, so a pass
// never repeats an earlier request exactly.
func (ph *phase) closedLoop(dur time.Duration) *phaseStats {
	start, steal0 := time.Now(), stealTime()
	deadline := start.Add(dur)
	st := ph.run(start, func(st *phaseStats) bool {
		if !time.Now().Before(deadline) {
			return false
		}
		i, _ := ph.take(func(int) bool { return true })
		ev, pass := ph.trace[i%len(ph.trace)], i/len(ph.trace)
		if ev.kind == evDeploy && ph.ids.len() >= ph.liveCap {
			ph.send(event{kind: evUndeploy}, pass, time.Now(), st)
		}
		ev.sink = (ev.sink + pass) % serverConfig().Nodes
		ph.send(ev, pass, time.Now(), st)
		return true
	})
	st.stolen = (stealTime() - steal0) / time.Duration(runtime.NumCPU())
	return st
}

// run starts the client goroutines, each looping on step until it
// returns false, and merges their statistics once all have returned.
func (ph *phase) run(start time.Time, step func(*phaseStats) bool) *phaseStats {
	per := make([]*phaseStats, ph.clients)
	var wg sync.WaitGroup
	for w := range per {
		per[w] = &phaseStats{}
		wg.Add(1)
		go func(st *phaseStats) {
			defer wg.Done()
			for step(st) {
			}
		}(per[w])
	}
	wg.Wait()
	out := &phaseStats{elapsed: time.Since(start)}
	for _, st := range per {
		out.merge(st)
	}
	return out
}

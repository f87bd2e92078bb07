// Package ads implements stream advertisements: nodes advertise the base
// and derived streams (outputs of deployed operators) they host, and
// coordinators aggregate these up the hierarchy. Advertisements are what
// make operator reuse visible to the planners — a derived stream can feed
// a new query with no additional cost for transporting or recomputing its
// input data.
package ads

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

// Ad advertises one derived stream: the output of a deployed operator (or
// a delivered sink stream) materialized at a node.
type Ad struct {
	// Sig is the canonical signature of the joined base streams.
	Sig string
	// Streams are the base streams combined by the advertised operator.
	Streams []query.StreamID
	// Node is where the stream is materialized.
	Node netgraph.NodeID
	// Rate is the expected output rate.
	Rate float64
	// QueryID records which query's deployment created the stream.
	QueryID int
	// Preds are the predicates the advertised operator was computed
	// under; a stricter query can reuse the stream through a residual
	// filter (query containment).
	Preds query.PredSet
	// ProjSig is the projection fragment of the advertising query over the
	// covered streams ("" when full tuples are shipped). Reuse requires an
	// exact match: a column-pruned stream cannot feed a query that needs
	// the dropped columns, and a full-width stream must not be conflated
	// with a pruned one when pricing reuse.
	ProjSig string
}

// Registry is an ordered index of advertisements. The zero value is an
// empty registry, as is NewRegistry's result. A Registry is internally locked: any
// number of goroutines may advertise and look up concurrently, so planners
// can consult the registry while other deployments advertise into it.
//
// Ads are kept in one slice sorted by (Sig, Node), the registry's key:
// Advertise inserts by binary search (O(log n) to find the slot plus an
// O(n) move), Prune compacts in one pass, All copies the slice, and
// InputsFor scans it in place, rejecting most ads with one AND of
// stream-set prefilters and allocating nothing for an ad rejected on its
// stream set.
type Registry struct {
	mu    sync.RWMutex
	index []entry
	// seq numbers advertisements so Lookup can return a signature's ads
	// in the order they were advertised.
	seq uint64

	// Telemetry handles (nil until BindObs; all nil-safe no-ops then).
	obsAdvertised *obs.Counter
	obsDuplicates *obs.Counter
	obsLookups    *obs.Counter
	obsOffered    *obs.Counter
	obsPruned     *obs.Counter
}

// entry is one indexed advertisement.
type entry struct {
	ad Ad
	// streams has bit id&63 set for every stream the ad names. An ad whose
	// bits are not all in a query's set names a stream the query lacks;
	// the converse does not hold once IDs reach 64, so a pass is confirmed
	// exactly by Query.MaskOf.
	streams uint64
	seq     uint64
}

// streamBits returns the prefilter set of ids: bit id&63 per stream.
func streamBits(ids []query.StreamID) uint64 {
	var b uint64
	for _, id := range ids {
		b |= 1 << (uint(id) & 63)
	}
	return b
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// BindObs connects the registry to a telemetry registry: advertisement
// counts ("ads.advertised", "ads.duplicates") and reuse-lookup activity
// ("ads.lookups", "ads.reuse_offered") are recorded there. Reuse
// hit/miss outcomes are a planning-level judgement and are recorded by
// the deployment layer (see hnp.System), not here.
func (r *Registry) BindObs(reg *obs.Registry) {
	r.obsAdvertised = reg.Counter("ads.advertised")
	r.obsDuplicates = reg.Counter("ads.duplicates")
	r.obsLookups = reg.Counter("ads.lookups")
	r.obsOffered = reg.Counter("ads.reuse_offered")
	r.obsPruned = reg.Counter("ads.pruned")
}

// Prune retracts every advertisement the keep predicate rejects and
// returns how many were removed. It is the churn-side counterpart of
// Advertise: when deployments are torn down or nodes fail, the streams
// they materialized stop existing, and planners must stop being offered
// them (a reused input that no longer runs anywhere fails at deployment).
// Callers typically keep exactly the ads whose operator is still hosted by
// the runtime. keep runs under the registry's write lock and must not
// call back into the registry.
func (r *Registry) Prune(keep func(Ad) bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.index[:0]
	for _, e := range r.index {
		if keep(e.ad) {
			kept = append(kept, e)
		}
	}
	removed := len(r.index) - len(kept)
	// Clear the vacated tail so retracted ads can be collected.
	clear(r.index[len(kept):])
	r.index = kept
	r.obsPruned.Add(int64(removed))
	return removed
}

// search returns the index of the first entry not ordered before
// (sig, node).
func (r *Registry) search(sig string, node netgraph.NodeID) int {
	return sort.Search(len(r.index), func(i int) bool {
		e := &r.index[i].ad
		return e.Sig > sig || (e.Sig == sig && e.Node >= node)
	})
}

// Advertise records an ad. A duplicate (same signature at the same node)
// is ignored, matching the one-time advertisement semantics of the paper.
// It reports whether the ad was new.
func (r *Registry) Advertise(ad Ad) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.search(ad.Sig, ad.Node)
	if i < len(r.index) && r.index[i].ad.Sig == ad.Sig && r.index[i].ad.Node == ad.Node {
		r.obsDuplicates.Inc()
		return false
	}
	r.seq++
	r.index = slices.Insert(r.index, i, entry{ad: ad, streams: streamBits(ad.Streams), seq: r.seq})
	r.obsAdvertised.Inc()
	return true
}

// Len returns the number of stored advertisements.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.index)
}

// AddAll copies every ad from other into r (duplicates skipped). It
// returns the number of new ads.
func (r *Registry) AddAll(other *Registry) int {
	if other == nil {
		return 0
	}
	added := 0
	for _, ad := range other.All() {
		if r.Advertise(ad) {
			added++
		}
	}
	return added
}

// Clone returns an independent copy of the registry.
func (r *Registry) Clone() *Registry {
	c := NewRegistry()
	c.AddAll(r)
	return c
}

// Lookup returns all ads with the given signature, in the order they were
// advertised. The result is a copy, safe to hold while other goroutines
// advertise.
func (r *Registry) Lookup(sig string) []Ad {
	r.mu.RLock()
	defer r.mu.RUnlock()
	lo := sort.Search(len(r.index), func(i int) bool { return r.index[i].ad.Sig >= sig })
	hi := lo
	for hi < len(r.index) && r.index[hi].ad.Sig == sig {
		hi++
	}
	if lo == hi {
		return nil
	}
	run := slices.Clone(r.index[lo:hi])
	slices.SortFunc(run, func(a, b entry) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]Ad, len(run))
	for i := range run {
		out[i] = run[i].ad
	}
	return out
}

// All returns every ad, ordered by signature then node, for deterministic
// iteration.
func (r *Registry) All() []Ad {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.index) == 0 {
		return nil
	}
	out := make([]Ad, len(r.index))
	for i := range r.index {
		out[i] = r.index[i].ad
	}
	return out
}

// InputsFor converts the ads usable by query q into planner inputs, in
// (Sig, Node) order:
// every ad whose stream set is a subset of q's sources, covering at least
// two positions (single-stream ads duplicate base inputs), whose node
// passes the within filter (nil means anywhere), and whose predicates
// contain the query's — exact-match reuse and containment-based reuse
// through a residual filter applied at the producing node. Rates are
// taken from the query's rate table (which already reflects the query's
// own predicates) so reuse and fresh computation are costed consistently.
// The index is scanned in place under the read lock, so within must not
// call back into the registry.
func (r *Registry) InputsFor(q *query.Query, rt query.RateTable, within func(netgraph.NodeID) bool) []query.Input {
	r.obsLookups.Inc()
	qbits := streamBits(q.Sources)
	var out []query.Input
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := range r.index {
		e := &r.index[i]
		if e.streams&^qbits != 0 {
			continue
		}
		ad := &e.ad
		mask, ok := q.MaskOf(ad.Streams)
		if !ok || mask.Count() < 2 {
			continue
		}
		if within != nil && !within(ad.Node) {
			continue
		}
		need := q.Preds.Restrict(ad.Streams)
		if !ad.Preds.Contains(need) {
			continue
		}
		if ad.ProjSig != q.ProjSigOf(mask) {
			continue
		}
		in := query.Input{
			Mask:    mask,
			Rate:    rt.Rate(mask),
			Loc:     ad.Node,
			Derived: true,
			Sig:     q.SigOf(mask),
		}
		if !ad.Preds.Equal(need) {
			// Strict containment: the reused stream is filtered at the
			// producing node before shipping.
			in.BaseSig = ad.Sig
		}
		out = append(out, in)
	}
	r.obsOffered.Add(int64(len(out)))
	return out
}

// AdvertisePlan records derived-stream ads for every operator of a
// deployed plan (reused subtrees are already advertised and are skipped by
// the duplicate check). It returns the number of new ads.
func (r *Registry) AdvertisePlan(q *query.Query, root *query.PlanNode) int {
	added := 0
	for _, op := range root.Operators() {
		if op.IsUnary() {
			// Aggregated outputs are terminal summaries, not reusable join
			// inputs.
			continue
		}
		streams := q.StreamsOf(op.Mask)
		ad := Ad{
			Sig:     q.SigOf(op.Mask),
			Streams: streams,
			Node:    op.Loc,
			Rate:    op.Rate,
			QueryID: q.ID,
			Preds:   q.Preds.Restrict(streams),
			ProjSig: q.ProjSigOf(op.Mask),
		}
		if r.Advertise(ad) {
			added++
		}
	}
	return added
}

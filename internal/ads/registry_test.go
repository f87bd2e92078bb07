package ads

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

func setup() (*query.Catalog, *query.Query, query.RateTable) {
	cat := query.NewCatalog(0.1)
	a := cat.Add("A", 10, 0)
	b := cat.Add("B", 20, 1)
	c := cat.Add("C", 5, 2)
	q, err := query.NewQuery(1, []query.StreamID{a, b, c}, 7)
	if err != nil {
		panic(err)
	}
	return cat, q, query.BuildRates(cat, q)
}

func TestAdvertiseDedup(t *testing.T) {
	r := NewRegistry()
	ad := Ad{Sig: "0|1", Streams: []query.StreamID{0, 1}, Node: 3, Rate: 20, QueryID: 1}
	if !r.Advertise(ad) {
		t.Error("first advertise rejected")
	}
	if r.Advertise(ad) {
		t.Error("duplicate advertise accepted")
	}
	other := ad
	other.Node = 4
	if !r.Advertise(other) {
		t.Error("same sig at new node rejected")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	if got := r.Lookup("0|1"); len(got) != 2 {
		t.Errorf("Lookup = %v", got)
	}
	if got := r.Lookup("9"); got != nil {
		t.Errorf("Lookup missing sig = %v", got)
	}
}

func TestAllDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Advertise(Ad{Sig: "2|3", Node: 9})
	r.Advertise(Ad{Sig: "0|1", Node: 5})
	r.Advertise(Ad{Sig: "0|1", Node: 2})
	all := r.All()
	if len(all) != 3 {
		t.Fatalf("All len = %d", len(all))
	}
	if all[0].Sig != "0|1" || all[0].Node != 2 || all[1].Node != 5 || all[2].Sig != "2|3" {
		t.Errorf("All order wrong: %v", all)
	}
}

func TestInputsFor(t *testing.T) {
	_, q, rt := setup()
	r := NewRegistry()
	// Usable: covers streams {0,1} of q.
	r.Advertise(Ad{Sig: query.SigOf([]query.StreamID{0, 1}), Streams: []query.StreamID{0, 1}, Node: 4, Rate: 99})
	// Skipped: single stream.
	r.Advertise(Ad{Sig: "2", Streams: []query.StreamID{2}, Node: 4, Rate: 5})
	// Skipped: stream 9 not in query.
	r.Advertise(Ad{Sig: "0|9", Streams: []query.StreamID{0, 9}, Node: 4, Rate: 5})
	ins := r.InputsFor(q, rt, nil)
	if len(ins) != 1 {
		t.Fatalf("InputsFor = %v", ins)
	}
	in := ins[0]
	if !in.Derived || in.Loc != 4 || in.Mask != 0b011 {
		t.Errorf("input = %+v", in)
	}
	// Rate must come from the rate table, not the ad.
	if in.Rate != rt.Rate(0b011) {
		t.Errorf("rate = %g, want %g", in.Rate, rt.Rate(0b011))
	}
	// within filter excludes the node.
	none := r.InputsFor(q, rt, func(n netgraph.NodeID) bool { return n != 4 })
	if len(none) != 0 {
		t.Errorf("filtered InputsFor = %v", none)
	}
}

func TestAdvertisePlan(t *testing.T) {
	_, q, rt := setup()
	l0 := query.Leaf(query.Input{Mask: 0b001, Rate: rt.Rate(0b001), Loc: 0, Sig: q.SigOf(0b001)})
	l1 := query.Leaf(query.Input{Mask: 0b010, Rate: rt.Rate(0b010), Loc: 1, Sig: q.SigOf(0b010)})
	l2 := query.Leaf(query.Input{Mask: 0b100, Rate: rt.Rate(0b100), Loc: 2, Sig: q.SigOf(0b100)})
	j1 := query.Join(l0, l1, 3, rt.Rate(0b011))
	root := query.Join(j1, l2, 5, rt.Rate(0b111))

	r := NewRegistry()
	if added := r.AdvertisePlan(q, root); added != 2 {
		t.Errorf("AdvertisePlan added %d, want 2", added)
	}
	if got := r.Lookup(q.SigOf(0b011)); len(got) != 1 || got[0].Node != 3 {
		t.Errorf("sub-join ad = %v", got)
	}
	if got := r.Lookup(q.SigOf(0b111)); len(got) != 1 || got[0].Node != 5 {
		t.Errorf("root ad = %v", got)
	}
	// Re-advertising the same plan adds nothing.
	if added := r.AdvertisePlan(q, root); added != 0 {
		t.Errorf("re-advertise added %d", added)
	}
}

func TestPrune(t *testing.T) {
	r := NewRegistry()
	ads := []Ad{
		{Sig: "0|1", Streams: []query.StreamID{0, 1}, Node: 3, Rate: 20},
		{Sig: "0|1", Streams: []query.StreamID{0, 1}, Node: 4, Rate: 20},
		{Sig: "1|2", Streams: []query.StreamID{1, 2}, Node: 3, Rate: 5},
		{Sig: "0|1|2", Streams: []query.StreamID{0, 1, 2}, Node: 5, Rate: 2},
	}
	for _, ad := range ads {
		if !r.Advertise(ad) {
			t.Fatalf("advertise %+v rejected", ad)
		}
	}
	// Retract everything hosted on node 3 (as after that node fails).
	if got := r.Prune(func(ad Ad) bool { return ad.Node != 3 }); got != 2 {
		t.Errorf("Prune removed %d, want 2", got)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d after prune, want 2", r.Len())
	}
	for _, ad := range r.All() {
		if ad.Node == 3 {
			t.Errorf("pruned ad survives: %+v", ad)
		}
	}
	// The fully retracted signature's bucket is gone, not empty.
	if got := r.Lookup("1|2"); got != nil {
		t.Errorf("Lookup of fully pruned sig = %v", got)
	}
	// Re-advertising after a prune works (no tombstones).
	if !r.Advertise(ads[2]) {
		t.Error("re-advertise after prune rejected")
	}
	// Pruning nothing removes nothing.
	if got := r.Prune(func(Ad) bool { return true }); got != 0 {
		t.Errorf("no-op prune removed %d", got)
	}
	// Pruning everything empties the registry.
	if got := r.Prune(func(Ad) bool { return false }); got != 3 {
		t.Errorf("full prune removed %d, want 3", got)
	}
	if r.Len() != 0 || len(r.All()) != 0 {
		t.Errorf("registry not empty after full prune: len=%d all=%v", r.Len(), r.All())
	}
}

// oracle is the registry's previous implementation — a map of
// per-signature lists, copied and sorted on every read — kept verbatim as
// the reference the ordered index is checked against.
type oracle struct {
	bySig map[string][]Ad
	count int
}

func newOracle() *oracle { return &oracle{bySig: map[string][]Ad{}} }

func (r *oracle) Prune(keep func(Ad) bool) int {
	removed := 0
	for sig, list := range r.bySig {
		kept := list[:0]
		for _, ad := range list {
			if keep(ad) {
				kept = append(kept, ad)
			} else {
				removed++
			}
		}
		if len(kept) == 0 {
			delete(r.bySig, sig)
		} else {
			r.bySig[sig] = kept
		}
	}
	r.count -= removed
	return removed
}

func (r *oracle) Advertise(ad Ad) bool {
	for _, ex := range r.bySig[ad.Sig] {
		if ex.Node == ad.Node {
			return false
		}
	}
	r.bySig[ad.Sig] = append(r.bySig[ad.Sig], ad)
	r.count++
	return true
}

func (r *oracle) Lookup(sig string) []Ad {
	return append([]Ad(nil), r.bySig[sig]...)
}

func (r *oracle) All() []Ad {
	sigs := make([]string, 0, len(r.bySig))
	for s := range r.bySig {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	var out []Ad
	for _, s := range sigs {
		as := append([]Ad(nil), r.bySig[s]...)
		sort.Slice(as, func(i, j int) bool { return as[i].Node < as[j].Node })
		out = append(out, as...)
	}
	return out
}

func (r *oracle) InputsFor(q *query.Query, rt query.RateTable, within func(netgraph.NodeID) bool) []query.Input {
	var out []query.Input
	for _, ad := range r.All() {
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
			in.BaseSig = ad.Sig
		}
		out = append(out, in)
	}
	return out
}

func (r *oracle) AdvertisePlan(q *query.Query, root *query.PlanNode) int {
	added := 0
	for _, op := range root.Operators() {
		if op.IsUnary() {
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

// oraclePool holds the stream IDs random queries draw from. IDs 64 and up
// share prefilter bits with IDs below 64 (0/64/128, 1/65/129, 2/66,
// 63/127), so the prefilter passes ads the exact check must reject.
var oraclePool = []query.StreamID{0, 1, 2, 3, 63, 64, 65, 66, 127, 128, 129}

// oracleGen draws random queries, predicates and projections.
type oracleGen struct {
	rng *rand.Rand
	cat *query.Catalog
	id  int
}

func newOracleGen(seed int64) *oracleGen {
	cat := query.NewCatalog(0.1)
	for i := 0; i < 130; i++ {
		cat.Add("s", float64(1+i%7), netgraph.NodeID(i%6))
	}
	return &oracleGen{rng: rand.New(rand.NewSource(seed)), cat: cat}
}

var oracleRanges = []query.Range{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 0.5}, {Lo: 0.25, Hi: 0.5}, {Lo: 0, Hi: 0.25}}

func (g *oracleGen) sources(lo, hi int) []query.StreamID {
	perm := g.rng.Perm(len(oraclePool))
	n := lo + g.rng.Intn(hi-lo+1)
	out := make([]query.StreamID, n)
	for i := range out {
		out[i] = oraclePool[perm[i]]
	}
	return out
}

// query draws a query over 2–5 pool streams with range predicates on up to
// two attributes per stream and, sometimes, a column projection.
func (g *oracleGen) query() *query.Query {
	srcs := g.sources(2, 5)
	var preds []query.Pred
	for _, s := range srcs {
		for _, attr := range []string{"a", "b"} {
			if g.rng.Intn(3) == 0 {
				preds = append(preds, query.Pred{Stream: s, Attr: attr, Range: oracleRanges[g.rng.Intn(len(oracleRanges))]})
			}
		}
	}
	g.id++
	q, err := query.NewQueryPred(g.id, srcs, 0, query.MustPredSet(preds...))
	if err != nil {
		panic(err)
	}
	if g.rng.Intn(4) == 0 {
		q.Proj = query.NewProjSpec()
		for _, s := range srcs {
			if g.rng.Intn(2) == 0 {
				q.Proj.Set(s, []string{"a"})
			}
		}
	}
	return q
}

// stricter returns a copy of q whose every range is halved, so ads
// advertised under q's predicates contain it strictly.
func (g *oracleGen) stricter(q *query.Query) *query.Query {
	var preds []query.Pred
	for _, p := range q.Preds.Preds() {
		p.Range.Hi = p.Range.Lo + p.Range.Width()/2
		preds = append(preds, p)
	}
	sq, err := query.NewQueryPred(q.ID, q.Sources, q.Sink, query.MustPredSet(preds...))
	if err != nil {
		panic(err)
	}
	sq.Proj = q.Proj
	return sq
}

// ad draws one advertisement for a random sub-join of q.
func (g *oracleGen) ad(q *query.Query) Ad {
	m := query.Mask(1 + g.rng.Intn(int(q.All())))
	streams := q.StreamsOf(m)
	return Ad{
		Sig:     q.SigOf(m),
		Streams: streams,
		Node:    netgraph.NodeID(g.rng.Intn(6)),
		Rate:    g.rng.Float64(),
		QueryID: q.ID,
		Preds:   q.Preds.Restrict(streams),
		ProjSig: q.ProjSigOf(m),
	}
}

// plan builds a left-deep plan over q's sources with joins at random nodes.
func (g *oracleGen) plan(q *query.Query) *query.PlanNode {
	rt := query.BuildRates(g.cat, q)
	var root *query.PlanNode
	for p := 0; p < q.K(); p++ {
		m := query.Mask(1) << uint(p)
		leaf := query.Leaf(query.Input{Mask: m, Rate: rt.Rate(m), Loc: netgraph.NodeID(p), Sig: q.SigOf(m)})
		if root == nil {
			root = leaf
			continue
		}
		root = query.Join(root, leaf, netgraph.NodeID(g.rng.Intn(6)), rt.Rate(root.Mask|m))
	}
	return root
}

// TestRegistryMatchesOracle drives the registry and the oracle through
// the same seed-driven sequence of Advertise, AdvertisePlan and Prune and
// requires InputsFor, All, Lookup and Len to agree after every step.
func TestRegistryMatchesOracle(t *testing.T) {
	var strict, exact, collisions int
	for seed := int64(1); seed <= 8; seed++ {
		g := newOracleGen(seed)
		r, o := NewRegistry(), newOracle()
		var qs []*query.Query
		for step := 0; step < 150; step++ {
			switch op := g.rng.Intn(10); {
			case op < 4:
				q := g.query()
				qs = append(qs, q)
				ad := g.ad(q)
				if got, want := r.Advertise(ad), o.Advertise(ad); got != want {
					t.Fatalf("seed %d step %d: Advertise(%+v) = %v, oracle %v", seed, step, ad, got, want)
				}
			case op < 8:
				q := g.query()
				qs = append(qs, q)
				root := g.plan(q)
				if got, want := r.AdvertisePlan(q, root), o.AdvertisePlan(q, root); got != want {
					t.Fatalf("seed %d step %d: AdvertisePlan = %d, oracle %d", seed, step, got, want)
				}
			default:
				k, n := g.rng.Intn(3), netgraph.NodeID(g.rng.Intn(6))
				keep := func(ad Ad) bool { return ad.QueryID%3 != k && ad.Node != n }
				if got, want := r.Prune(keep), o.Prune(keep); got != want {
					t.Fatalf("seed %d step %d: Prune = %d, oracle %d", seed, step, got, want)
				}
			}

			all := o.All()
			if got := r.All(); !reflect.DeepEqual(got, all) {
				t.Fatalf("seed %d step %d: All\n got %+v\nwant %+v", seed, step, got, all)
			}
			if r.Len() != o.count {
				t.Fatalf("seed %d step %d: Len = %d, oracle %d", seed, step, r.Len(), o.count)
			}
			for _, sig := range append(sortedSigs(o), "no-such-sig") {
				if got, want := r.Lookup(sig), o.Lookup(sig); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Lookup(%q)\n got %+v\nwant %+v", seed, step, sig, got, want)
				}
			}

			// Probe with a fresh query, an advertised query (exact reuse)
			// and its stricter twin (containment reuse).
			probes := []*query.Query{g.query()}
			if len(qs) > 0 {
				q := qs[g.rng.Intn(len(qs))]
				probes = append(probes, q, g.stricter(q))
			}
			even := func(n netgraph.NodeID) bool { return n%2 == 0 }
			for _, q := range probes {
				rt := query.BuildRates(g.cat, q)
				for _, within := range []func(netgraph.NodeID) bool{nil, even} {
					got, want := r.InputsFor(q, rt, within), o.InputsFor(q, rt, within)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d: InputsFor(%v)\n got %+v\nwant %+v", seed, step, q.Sources, got, want)
					}
					for _, in := range got {
						if in.BaseSig != "" {
							strict++
						} else {
							exact++
						}
					}
				}
				qbits := streamBits(q.Sources)
				for _, ad := range all {
					if _, ok := q.MaskOf(ad.Streams); !ok && streamBits(ad.Streams)&^qbits == 0 {
						collisions++
					}
				}
			}
		}
	}
	// The sequence must have exercised every path it is meant to cover.
	if strict == 0 || exact == 0 || collisions == 0 {
		t.Errorf("coverage: %d strict-containment inputs, %d exact inputs, %d prefilter collisions; want all > 0", strict, exact, collisions)
	}
}

func sortedSigs(o *oracle) []string {
	sigs := make([]string, 0, len(o.bySig))
	for s := range o.bySig {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	return sigs
}

// TestInputsForMissesAllocateNothing pins the scan's cost model: ads that
// cannot feed the query — a stream the query lacks (prefilter or exact
// check) or a single covered stream — add no allocation to a lookup.
func TestInputsForMissesAllocateNothing(t *testing.T) {
	g := newOracleGen(1)
	q, err := query.NewQuery(1, []query.StreamID{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := query.BuildRates(g.cat, q)
	r := NewRegistry()
	for i := 0; i < 25; i++ {
		r.Advertise(g.ad(q))
	}
	within := func(n netgraph.NodeID) bool { return n != 5 }
	before := testing.AllocsPerRun(100, func() { r.InputsFor(q, rt, within) })
	for i := 0; r.Len() < 25+400; i++ {
		var streams []query.StreamID
		switch i % 3 {
		case 0: // shares prefilter bits with q (64 ≡ 0, 65 ≡ 1 mod 64)
			streams = []query.StreamID{0, 64 + query.StreamID(i%2)}
		case 1: // names a stream outside q's prefilter
			streams = []query.StreamID{1, 10 + query.StreamID(i%50)}
		default: // one of q's streams alone
			streams = []query.StreamID{query.StreamID(i % 4)}
		}
		r.Advertise(Ad{Sig: query.SigOf(streams), Streams: streams, Node: netgraph.NodeID(i)})
	}
	after := testing.AllocsPerRun(100, func() { r.InputsFor(q, rt, within) })
	if after != before {
		t.Errorf("InputsFor allocs: %v with 25 ads, %v after adding 400 misses; want equal", before, after)
	}
}

// TestRegistryConcurrentInputsFor runs lookups against concurrent
// Advertise and Prune; under -race it checks the index is only read under
// the lock, and every reader sees a sorted, duplicate-free index.
func TestRegistryConcurrentInputsFor(t *testing.T) {
	g := newOracleGen(2)
	var qs []*query.Query
	var adList []Ad
	for i := 0; i < 200; i++ {
		q := g.query()
		qs = append(qs, q)
		adList = append(adList, g.ad(q))
	}
	r := NewRegistry()
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			for _, ad := range adList {
				r.Advertise(ad)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			k := i % 5
			r.Prune(func(ad Ad) bool { return ad.QueryID%5 != k })
		}
	}()
	for w := 0; w < 2; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				q := qs[(i*7+w)%len(qs)]
				r.InputsFor(q, query.BuildRates(g.cat, q), func(n netgraph.NodeID) bool { return n != 3 })
				all := r.All()
				for j := 1; j < len(all); j++ {
					if a, b := all[j-1], all[j]; a.Sig > b.Sig || (a.Sig == b.Sig && a.Node >= b.Node) {
						t.Errorf("All out of order at %d: %+v before %+v", j, a, b)
						return
					}
				}
				r.Lookup(q.SigOf(q.All()))
			}
		}()
	}
	wg.Wait()
	if got := len(r.All()); got != r.Len() {
		t.Errorf("len(All) = %d, Len = %d", got, r.Len())
	}
}

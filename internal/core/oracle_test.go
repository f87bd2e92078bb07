package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// solveOracle is the DP kernel as it stood before the site-inner rewrite:
// submasks in popcount order, sites on the outside of the split loop, an
// m×m site matrix always materialized through Problem.Dist (SiteDist is
// ignored), and the goal row relaxed and folded like any other. It is
// kept verbatim, apart from its submask list living in a local slice
// instead of a scratch field, as the reference the production kernel must
// match bit for bit (TestSolveMatchesOracle).
func (sc *solveScratch) solveOracle(p Problem, buildPlan bool) (*query.PlanNode, float64, error) {
	if p.Goal == 0 {
		return nil, 0, fmt.Errorf("core: empty goal")
	}
	// Collect usable inputs.
	ins := sc.ins[:0]
	for _, in := range p.Inputs {
		if in.Mask != 0 && in.Mask&p.Goal == in.Mask {
			ins = append(ins, in)
		}
	}
	sc.ins = ins
	covered := query.Mask(0)
	for i := range ins {
		covered |= ins[i].Mask
	}
	if covered != p.Goal {
		return nil, 0, fmt.Errorf("core: goal %b not coverable (inputs cover %b)", p.Goal, covered)
	}

	sites := dedupeSites(p.Sites)
	m := len(sites)
	if m == 0 {
		return nil, 0, fmt.Errorf("core: no candidate sites")
	}

	size := 1 << uint(bits.Len32(uint32(p.Goal)))
	slab := size * m
	sc.avail = growFloats(sc.avail, slab)
	sc.availCh = growInt32(sc.availCh, slab)
	sc.opCost = growFloats(sc.opCost, slab)
	sc.opSplit = growMasks(sc.opSplit, slab)
	// Only rows of actual submasks of Goal are written and read, so the
	// slabs need no clearing between runs.

	// Materialize every distance the DP will probe, once.
	sc.sdist = growFloats(sc.sdist, m*m)
	for u := 0; u < m; u++ {
		row := sc.sdist[u*m : u*m+m]
		su := sites[u]
		for v := range row {
			row[v] = p.Dist(su, sites[v])
		}
	}
	sc.idist = growFloats(sc.idist, len(ins)*m)
	for i := range ins {
		row := sc.idist[i*m : i*m+m]
		loc := ins[i].Loc
		for v := range row {
			row[v] = p.Dist(loc, sites[v])
		}
	}

	// Enumerate submasks of Goal in increasing popcount order.
	subs := appendSubmasksByPopcount(nil, p.Goal)
	avail, availCh := sc.avail, sc.availCh
	for _, s := range subs {
		base := int(s) * m
		av := avail[base : base+m]
		ch := availCh[base : base+m]
		for v := range av {
			av[v], ch[v] = inf, math.MinInt32
		}
		// Direct inputs.
		for i := range ins {
			if ins[i].Mask != s {
				continue
			}
			rate := ins[i].Rate * inputWidth(&ins[i], p.Widths)
			irow := sc.idist[i*m : i*m+m]
			for v := range av {
				if c := rate * irow[v]; c < av[v] {
					av[v], ch[v] = c, int32(i)
				}
			}
		}
		if s.Count() >= 2 {
			oc := sc.opCost[base : base+m]
			os := sc.opSplit[base : base+m]
			low := s & -s
			for v := 0; v < m; v++ {
				best, bestSplit := inf, query.Mask(0)
				for m1 := (s - 1) & s; m1 > 0; m1 = (m1 - 1) & s {
					if m1&low == 0 {
						continue // canonical: left part holds the lowest bit
					}
					m2 := s ^ m1
					a1, a2 := avail[int(m1)*m+v], avail[int(m2)*m+v]
					if a1 == inf || a2 == inf {
						continue
					}
					c := a1 + a2
					if p.Penalty != nil {
						c += p.Penalty(sites[v], p.Rates.Rate(m1)+p.Rates.Rate(m2))
					}
					if c < best {
						best, bestSplit = c, m1
					}
				}
				oc[v], os[v] = best, bestSplit
			}
			// Fold "operator at u, result shipped to v" into avail.
			rate := p.Rates.Rate(s) * p.Widths.Width(s)
			for u := 0; u < m; u++ {
				ocu := oc[u]
				if ocu == inf {
					continue
				}
				srow := sc.sdist[u*m : u*m+m]
				for v := range av {
					if c := ocu + rate*srow[v]; c < av[v] {
						av[v], ch[v] = c, int32(-(u + 2))
					}
				}
			}
		}
	}

	// Choose the root realization.
	rate := p.Rates.Rate(p.Goal) * p.Widths.Width(p.Goal)
	best := inf
	bestInput, bestSite := -1, -1
	for i := range ins {
		if ins[i].Mask != p.Goal {
			continue
		}
		c := 0.0
		if p.Deliver {
			c = ins[i].Rate * inputWidth(&ins[i], p.Widths) * p.Dist(ins[i].Loc, p.Sink)
		}
		if c < best {
			best, bestInput, bestSite = c, i, -1
		}
	}
	if p.Goal.Count() >= 2 {
		gbase := int(p.Goal) * m
		for u := 0; u < m; u++ {
			ocu := sc.opCost[gbase+u]
			if ocu == inf {
				continue
			}
			c := ocu
			if p.Deliver {
				c += rate * p.Dist(sites[u], p.Sink)
			}
			if c < best {
				best, bestInput, bestSite = c, -1, u
			}
		}
	}
	if best == inf {
		return nil, 0, fmt.Errorf("core: goal %b unachievable from available inputs", p.Goal)
	}
	if !buildPlan {
		return nil, best, nil
	}

	r := rebuilder{rates: p.Rates, widths: p.Widths, ins: ins, sites: sites, m: m, availCh: sc.availCh, opSplit: sc.opSplit}
	var root *query.PlanNode
	if bestInput >= 0 {
		root = r.leaf(ins[bestInput])
	} else {
		root = r.buildOp(p.Goal, bestSite)
	}
	return root, best, nil
}

// submasksByPopcount lists all non-empty submasks of goal, smallest
// cardinality first, so DP dependencies are always ready.
func submasksByPopcount(goal query.Mask) []query.Mask {
	return appendSubmasksByPopcount(nil, goal)
}

// appendSubmasksByPopcount is submasksByPopcount into a caller-provided
// buffer, so the pooled solver enumerates without allocating.
func appendSubmasksByPopcount(subs []query.Mask, goal query.Mask) []query.Mask {
	for s := goal; s > 0; s = (s - 1) & goal {
		subs = append(subs, s)
	}
	// Insertion sort by popcount (lists are tiny: 2^K−1 entries).
	for i := 1; i < len(subs); i++ {
		for j := i; j > 0 && subs[j].Count() < subs[j-1].Count(); j-- {
			subs[j], subs[j-1] = subs[j-1], subs[j]
		}
	}
	return subs
}

// planKey renders every field of a plan the kernels choose — shape,
// placements, input identity, rates and widths to the bit — so two plans
// compare equal only if they are the same plan.
func planKey(p *query.PlanNode) string {
	if p == nil {
		return "<nil>"
	}
	if p.IsLeaf() {
		return fmt.Sprintf("%s/%b@%d:%x:%x", p.In.Sig, p.Mask, p.Loc, math.Float64bits(p.Rate), math.Float64bits(p.Width))
	}
	return fmt.Sprintf("(%s ⋈%b@%d:%x:%x %s)", planKey(p.L), p.Mask, p.Loc,
		math.Float64bits(p.Rate), math.Float64bits(p.Width), planKey(p.R))
}

// oracleProblem draws a random Problem aimed at the kernel's corners:
// goals of one to six bits at arbitrary positions, derived inputs that
// may cover the whole goal, ignored inputs outside it, zero rates, +Inf
// and zero distances (so rate×distance can be NaN), optional widths and
// penalties, and site lists that sometimes repeat a node. The distance
// table is an arbitrary non-negative matrix, not a metric: bit-identity
// between the kernels does not depend on it being one.
func oracleProblem(rng *rand.Rand) Problem {
	n := 2 + rng.Intn(40)
	dist := make([]float64, n*n)
	for i := range dist {
		switch r := rng.Intn(20); {
		case r == 0:
			dist[i] = math.Inf(1)
		case r == 1:
			dist[i] = 0
		default:
			dist[i] = rng.Float64() * 100
		}
	}
	distFn := func(a, b netgraph.NodeID) float64 { return dist[int(a)*n+int(b)] }
	node := func() netgraph.NodeID { return netgraph.NodeID(rng.Intn(n)) }
	rate := func() float64 {
		if rng.Intn(8) == 0 {
			return 0
		}
		return rng.Float64() * 50
	}

	const span = 7 // goal bits are drawn from positions 0..span-1
	var goal query.Mask
	for goal == 0 {
		bitsWanted := 1 + rng.Intn(6)
		for _, pos := range rng.Perm(span)[:bitsWanted] {
			goal |= 1 << uint(pos)
		}
	}
	rates := make(query.RateTable, 1<<span)
	for i := range rates {
		rates[i] = rate()
	}
	var widths query.WidthTable
	if rng.Intn(2) == 0 {
		widths = make(query.WidthTable, 1<<span)
		for i := range widths {
			widths[i] = 1 + rng.Float64()*7
		}
	}

	var inputs []query.Input
	add := func(m query.Mask, derived bool) {
		in := query.Input{Mask: m, Rate: rate(), Loc: node(), Derived: derived,
			Sig: fmt.Sprintf("i%d", len(inputs))}
		if rng.Intn(4) == 0 {
			in.Width = 1 + rng.Float64()*3
		}
		inputs = append(inputs, in)
	}
	for pos := 0; pos < span; pos++ {
		if goal.Has(pos) {
			add(query.Mask(1)<<uint(pos), false)
		}
	}
	for extra := rng.Intn(5); extra > 0; extra-- {
		switch rng.Intn(4) {
		case 0:
			add(goal, true) // covers the whole goal
		case 1:
			add(query.Mask(1+rng.Intn(1<<span-1)), true) // often outside the goal
		default:
			if sub := goal & query.Mask(rng.Intn(1<<span)); sub != 0 {
				add(sub, true)
			}
		}
	}

	sites := make([]netgraph.NodeID, 1+rng.Intn(12))
	for i := range sites {
		sites[i] = node()
	}
	if rng.Intn(4) != 0 {
		sites = dedupeSitesMap(sites)
	}

	p := Problem{
		Inputs: inputs, Sites: sites, Dist: distFn, Rates: rates, Widths: widths,
		Goal: goal, Sink: node(), Deliver: rng.Intn(3) != 0,
	}
	if rng.Intn(3) == 0 {
		p.Penalty = func(v netgraph.NodeID, inRate float64) float64 {
			return float64((int(v)*2654435761)%89) / 10 * inRate
		}
	}
	return p
}

// withSiteDist returns p with SiteDist set to Dist over p.Sites, as the
// hierarchy's member blocks provide it.
func withSiteDist(p Problem) Problem {
	m := len(p.Sites)
	p.SiteDist = make([]float64, m*m)
	for u, a := range p.Sites {
		for v, b := range p.Sites {
			p.SiteDist[u*m+v] = p.Dist(a, b)
		}
	}
	return p
}

// countPenalty wraps p's penalty (if any) with a call counter.
func countPenalty(p Problem, calls *int) Problem {
	if pen := p.Penalty; pen != nil {
		p.Penalty = func(v netgraph.NodeID, inRate float64) float64 {
			*calls++
			return pen(v, inRate)
		}
	}
	return p
}

// TestSolveMatchesOracle drives random Problems through the production
// kernel, with and without SiteDist, and through solveOracle (the kernel
// it replaced). Plans, costs and errors must be identical to the bit, and
// the penalty must be consulted exactly as often.
func TestSolveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trials := 3000
	if testing.Short() {
		trials = 600
	}
	var withPenalty, dupSites, oneBit, wholeGoal, nanCosts int
	for trial := 0; trial < trials; trial++ {
		p := oracleProblem(rng)
		var oracleCalls int
		wantPlan, wantCost, wantErr := new(solveScratch).solveOracle(countPenalty(p, &oracleCalls), true)
		if p.Penalty != nil {
			withPenalty++
		}
		if len(dedupeSites(p.Sites)) != len(p.Sites) {
			dupSites++
		}
		if p.Goal.Count() == 1 {
			oneBit++
		}
		for _, in := range p.Inputs {
			if in.Mask == p.Goal && in.Derived {
				wholeGoal++
				break
			}
		}
		for _, in := range p.Inputs {
			for _, s := range p.Sites {
				if in.Rate == 0 && math.IsInf(p.Dist(in.Loc, s), 1) {
					nanCosts++
				}
			}
		}

		for _, variant := range []struct {
			name string
			p    Problem
		}{{"no SiteDist", p}, {"SiteDist", withSiteDist(p)}} {
			var calls int
			q := countPenalty(variant.p, &calls)
			plan, cost, err := Solve(q)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("trial %d (%s): err %v, oracle %v", trial, variant.name, err, wantErr)
			}
			if err != nil {
				continue
			}
			if math.Float64bits(cost) != math.Float64bits(wantCost) {
				t.Fatalf("trial %d (%s): cost %v, oracle %v", trial, variant.name, cost, wantCost)
			}
			if got, want := planKey(plan), planKey(wantPlan); got != want {
				t.Fatalf("trial %d (%s): plan\n  %s\noracle\n  %s", trial, variant.name, got, want)
			}
			if calls != oracleCalls {
				t.Fatalf("trial %d (%s): %d penalty calls, oracle %d", trial, variant.name, calls, oracleCalls)
			}
			costOnly, err := SolveCost(variant.p)
			if err != nil || math.Float64bits(costOnly) != math.Float64bits(wantCost) {
				t.Fatalf("trial %d (%s): SolveCost %v (%v), oracle %v", trial, variant.name, costOnly, err, wantCost)
			}
		}
	}
	// The generator must actually reach the corners it exists for.
	for name, n := range map[string]int{"penalty": withPenalty, "duplicate sites": dupSites,
		"one-bit goals": oneBit, "whole-goal inputs": wholeGoal, "0×Inf input costs": nanCosts} {
		if n == 0 {
			t.Errorf("no trial exercised %s", name)
		}
	}
}

package hierarchy

import (
	"fmt"
	"math"

	"hnp/internal/netgraph"
)

// diameterTolerance absorbs float accumulation differences between the
// stored cluster diameter and a recomputation over the same path snapshot.
const diameterTolerance = 1e-9

// CheckInvariants verifies the structural well-formedness the rest of the
// system plans against, and returns the first violation found:
//
//   - every level is non-empty, 1-indexed, and its byNode index maps
//     exactly the members of its clusters, each member to its one cluster;
//   - every cluster is non-empty, holds at most max_cs members, has its
//     coordinator among its members, stores a diameter equal to the
//     maximum pairwise traversal cost of its members under the current
//     path snapshot, and carries a member distance block (MemberDist)
//     equal entry for entry, exactly, to that snapshot's costs;
//   - the members of level l+1 are exactly the coordinators of level l
//     (the promotion bijection), and the top level has a single cluster;
//   - the dense representative table agrees with an explicit walk up the
//     coordinator chain for every present node at every level, and holds
//     the -1 poison for absent nodes;
//   - the path snapshot the hierarchy measures costs against is not stale
//     for its graph.
//
// It is a read-only audit: safe to call between mutations, intended for
// tests and the chaos harness rather than hot paths (cost is roughly one
// Rebind).
func (h *Hierarchy) CheckInvariants() error {
	if len(h.lvls) == 0 {
		return fmt.Errorf("hierarchy: no levels")
	}
	if h.paths.StaleFor(h.g) {
		return fmt.Errorf("hierarchy: path snapshot stale (snapshot version %d, graph version %d)",
			h.paths.Version(), h.g.Version())
	}
	for li, lvl := range h.lvls {
		if lvl.Index != li+1 {
			return fmt.Errorf("hierarchy: level at position %d has index %d", li, lvl.Index)
		}
		if len(lvl.Clusters) == 0 {
			return fmt.Errorf("hierarchy: level %d has no clusters", lvl.Index)
		}
		seen := map[netgraph.NodeID]*Cluster{}
		for ci, c := range lvl.Clusters {
			if c.Level != lvl.Index {
				return fmt.Errorf("hierarchy: cluster %d at level %d claims level %d", ci, lvl.Index, c.Level)
			}
			if len(c.Members) == 0 {
				return fmt.Errorf("hierarchy: empty cluster %d at level %d", ci, lvl.Index)
			}
			if len(c.Members) > h.maxCS {
				return fmt.Errorf("hierarchy: cluster %d at level %d has %d members, max_cs is %d",
					ci, lvl.Index, len(c.Members), h.maxCS)
			}
			coordSeen := false
			for _, m := range c.Members {
				if prev := seen[m]; prev != nil {
					return fmt.Errorf("hierarchy: node %d in two clusters at level %d", m, lvl.Index)
				}
				seen[m] = c
				if lvl.byNode[m] != c {
					return fmt.Errorf("hierarchy: byNode[%d] at level %d does not point at the node's cluster", m, lvl.Index)
				}
				if m == c.Coordinator {
					coordSeen = true
				}
			}
			if !coordSeen {
				return fmt.Errorf("hierarchy: coordinator %d of cluster %d at level %d is not a member",
					c.Coordinator, ci, lvl.Index)
			}
			if want := h.paths.MaxPairwise(c.Members); math.Abs(want-c.Diameter) > diameterTolerance {
				return fmt.Errorf("hierarchy: cluster %d at level %d stores diameter %g, members measure %g",
					ci, lvl.Index, c.Diameter, want)
			}
			if err := h.checkMemberDist(c); err != nil {
				return fmt.Errorf("hierarchy: cluster %d at level %d: %w", ci, lvl.Index, err)
			}
		}
		if len(lvl.byNode) != len(seen) {
			return fmt.Errorf("hierarchy: level %d byNode has %d entries for %d members (stale index entries)",
				lvl.Index, len(lvl.byNode), len(seen))
		}
		if li+1 < len(h.lvls) {
			// Promotion bijection: the level above holds exactly this
			// level's coordinators.
			above := h.lvls[li+1]
			promoted := map[netgraph.NodeID]bool{}
			for _, c := range lvl.Clusters {
				promoted[c.Coordinator] = true
			}
			if len(above.byNode) != len(promoted) {
				return fmt.Errorf("hierarchy: level %d has %d members for %d coordinators below",
					above.Index, len(above.byNode), len(promoted))
			}
			for m := range above.byNode {
				if !promoted[m] {
					return fmt.Errorf("hierarchy: node %d at level %d is not a coordinator at level %d",
						m, above.Index, lvl.Index)
				}
			}
		} else if len(lvl.Clusters) != 1 {
			return fmt.Errorf("hierarchy: top level %d has %d clusters, want 1", lvl.Index, len(lvl.Clusters))
		}
	}
	return h.checkRepTable()
}

// checkMemberDist pins c's member distance block to the current path
// snapshot. Unlike the diameter it allows no tolerance: the block is a
// copy of snapshot entries, so anything but equality means a mutation
// forgot to refresh it.
func (h *Hierarchy) checkMemberDist(c *Cluster) error {
	m := len(c.Members)
	if len(c.dist) != m*m {
		return fmt.Errorf("member distance block has %d entries for %d members", len(c.dist), m)
	}
	for i, a := range c.Members {
		for j, b := range c.Members {
			if got, want := c.dist[i*m+j], h.paths.Dist(a, b); got != want {
				return fmt.Errorf("member distance block [%d→%d] = %g, snapshot says %g", a, b, got, want)
			}
		}
	}
	return nil
}

// checkRepTable pins the dense representative table to an explicit walk up
// the coordinator chain.
func (h *Hierarchy) checkRepTable() error {
	n := h.g.NumNodes()
	height := len(h.lvls)
	if len(h.rep) != height {
		return fmt.Errorf("hierarchy: rep table has %d levels, hierarchy has %d", len(h.rep), height)
	}
	for l := 0; l < height; l++ {
		if len(h.rep[l]) != n {
			return fmt.Errorf("hierarchy: rep table level %d has %d entries for %d nodes", l+1, len(h.rep[l]), n)
		}
	}
	for v := 0; v < n; v++ {
		id := netgraph.NodeID(v)
		if !h.Contains(id) {
			for l := 0; l < height; l++ {
				if h.rep[l][v] != -1 {
					return fmt.Errorf("hierarchy: absent node %d has rep %d at level %d, want -1", v, h.rep[l][v], l+1)
				}
			}
			continue
		}
		r := id
		for l := 1; l <= height; l++ {
			if l > 1 {
				c := h.lvls[l-2].byNode[r]
				if c == nil {
					return fmt.Errorf("hierarchy: coordinator chain of node %d breaks at level %d", v, l)
				}
				r = c.Coordinator
			}
			if got := h.rep[l-1][v]; got != r {
				return fmt.Errorf("hierarchy: rep[%d][%d] = %d, chain walk gives %d", l, v, got, r)
			}
		}
	}
	return nil
}

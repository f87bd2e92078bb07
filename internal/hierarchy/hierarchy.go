// Package hierarchy builds and maintains the virtual clustering hierarchy
// of network partitions at the core of the paper. Physical nodes are
// clustered by inter-node traversal cost into clusters of at most max_cs
// members (Level 1); each cluster promotes its most central member as
// coordinator to the next level, which is clustered again, until a single
// top-level cluster remains.
//
// The hierarchy exposes the per-level estimated inter-node costs the
// optimizers plan against, and the per-level maximum intra-cluster
// traversal costs d_i that bound the cost approximation (Theorem 1) and
// the Top-Down algorithm's sub-optimality (Theorem 3).
package hierarchy

import (
	"fmt"
	"math/rand"
	"sync"

	"hnp/internal/cluster"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
)

// Cluster is one network partition at some level of the hierarchy.
type Cluster struct {
	// Level is 1-based: level 1 holds physical nodes.
	Level int
	// Members are the nodes present at this level that belong to this
	// cluster. At level 1 these are physical nodes; above, coordinators
	// promoted from the level below. All IDs are physical node IDs.
	Members []netgraph.NodeID
	// Coordinator is the member promoted to the next level (the medoid).
	Coordinator netgraph.NodeID
	// Diameter is the maximum pairwise traversal cost between members,
	// measured on the physical network.
	Diameter float64

	// dist is the member distance block (see MemberDist), filled together
	// with Diameter by Hierarchy.measure.
	dist []float64
}

// MemberDist returns the cluster's member distance block: the row-major
// m×m matrix (m = len(Members)) whose entry i*m+j is the path cost from
// Members[i] to Members[j] under the hierarchy's current snapshot. A
// member of a level-l cluster is its own level-l representative, so the
// block is also exactly what EstCost reports between two members at the
// cluster's level. Every mutation that changes the members or the
// snapshot refreshes it (the same points that re-measure Diameter);
// callers must treat it as read-only and must not keep it across a
// mutation. It is nil for a Cluster the hierarchy did not build.
func (c *Cluster) MemberDist() []float64 { return c.dist }

// Level groups the clusters of one hierarchy level.
type Level struct {
	// Index is 1-based.
	Index    int
	Clusters []*Cluster
	byNode   map[netgraph.NodeID]*Cluster
}

// MaxDiameter returns d_i, the maximum intra-cluster traversal cost at
// this level.
func (l *Level) MaxDiameter() float64 {
	d := 0.0
	for _, c := range l.Clusters {
		if c.Diameter > d {
			d = c.Diameter
		}
	}
	return d
}

// Hierarchy is a virtual clustering hierarchy over a physical network.
//
// Concurrency: read-only queries (Cover, Rep, EstCost, ClusterOf,
// Cluster.MemberDist, ...) are safe to call from multiple goroutines, so
// several planners can share one hierarchy; the lazily-filled cover cache
// is internally locked. Mutations (Rebind, AddNode, RemoveNode) are NOT
// safe to run concurrently with queries or each other — callers must
// serialize them externally (the hnp System does so with its own lock).
type Hierarchy struct {
	g     *netgraph.Graph
	paths *netgraph.Paths
	maxCS int
	lvls  []*Level

	// rep is the dense representative table: rep[l-1][v] is the level-l
	// representative of physical node v (v's coordinator chain walked up
	// front), or -1 if v is not part of the hierarchy. It turns Rep — the
	// innermost probe of every per-level cost estimate — into a single
	// array index instead of one map lookup per level. Built by Build and
	// rebuilt after every mutation (Rebind, AddNode, RemoveNode).
	rep [][]netgraph.NodeID

	coverMu sync.Mutex
	cover   map[*Cluster][]netgraph.NodeID

	// rowMark is scratch for RebindRows: a dense changed-node mark,
	// cleared after each use so rebinding allocates nothing steady-state.
	rowMark []bool

	// Telemetry handles (nil until BindObs; all nil-safe no-ops then).
	// obsReg is kept so maintenance operations can open spans.
	obsReg           *obs.Registry
	obsHits          *obs.Counter
	obsMisses        *obs.Counter
	obsRebindFull    *obs.Counter
	obsRebindDelta   *obs.Counter
	obsRebindAudited *obs.Counter
}

// BindObs connects the hierarchy to a telemetry registry: cover-cache
// effectiveness ("hierarchy.cover_hits", "hierarchy.cover_misses"),
// rebind scope ("hierarchy.rebind_full", "hierarchy.rebind_delta",
// "hierarchy.rebind_clusters_reaudited"), and maintenance timings
// ("hierarchy.rebind.*", "hierarchy.add_node.*", "hierarchy.remove_node.*"
// span metrics) are recorded there.
func (h *Hierarchy) BindObs(reg *obs.Registry) {
	h.obsReg = reg
	h.obsHits = reg.Counter("hierarchy.cover_hits")
	h.obsMisses = reg.Counter("hierarchy.cover_misses")
	h.obsRebindFull = reg.Counter("hierarchy.rebind_full")
	h.obsRebindDelta = reg.Counter("hierarchy.rebind_delta")
	h.obsRebindAudited = reg.Counter("hierarchy.rebind_clusters_reaudited")
}

// Build constructs a hierarchy over the nodes of g with at most maxCS
// nodes per cluster, clustering by traversal cost under paths (which must
// be a MetricCost snapshot of g). The rng drives k-medoids seeding;
// identical seeds give identical hierarchies.
func Build(g *netgraph.Graph, paths *netgraph.Paths, maxCS int, rng *rand.Rand) (*Hierarchy, error) {
	if maxCS < 1 {
		return nil, fmt.Errorf("hierarchy: maxCS must be >= 1, got %d", maxCS)
	}
	if maxCS == 1 {
		return nil, fmt.Errorf("hierarchy: maxCS of 1 cannot form a converging hierarchy")
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("hierarchy: empty graph")
	}
	h := &Hierarchy{g: g, paths: paths, maxCS: maxCS, cover: map[*Cluster][]netgraph.NodeID{}}
	nodes := make([]netgraph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = netgraph.NodeID(i)
	}
	levelIdx := 1
	for {
		dist := func(i, j int) float64 { return paths.Dist(nodes[i], nodes[j]) }
		res, err := cluster.Partition(len(nodes), maxCS, dist, rng)
		if err != nil {
			return nil, err
		}
		lvl := &Level{Index: levelIdx, byNode: map[netgraph.NodeID]*Cluster{}}
		coords := make([]netgraph.NodeID, 0, len(res.Medoids))
		for ci, items := range res.Clusters() {
			members := make([]netgraph.NodeID, len(items))
			for k, it := range items {
				members[k] = nodes[it]
			}
			c := &Cluster{
				Level:       levelIdx,
				Members:     members,
				Coordinator: nodes[res.Medoids[ci]],
			}
			h.measure(c)
			lvl.Clusters = append(lvl.Clusters, c)
			for _, m := range members {
				lvl.byNode[m] = c
			}
			coords = append(coords, c.Coordinator)
		}
		h.lvls = append(h.lvls, lvl)
		if len(lvl.Clusters) == 1 {
			break
		}
		nodes = coords
		levelIdx++
	}
	h.rebuildRep()
	return h, nil
}

// measure refills c's member distance block from the current path
// snapshot and takes Diameter as the largest entry of its upper triangle:
// the same pairs, compared in the same order, as Paths.MaxPairwise, so the
// diameter is bit-identical to it. The block's storage is reused when the
// cluster did not grow, which keeps delta rebinds allocation-free.
func (h *Hierarchy) measure(c *Cluster) {
	m := len(c.Members)
	if cap(c.dist) < m*m {
		c.dist = make([]float64, m*m)
	}
	c.dist = c.dist[:m*m]
	max := 0.0
	for i, a := range c.Members {
		row := c.dist[i*m : i*m+m]
		for j, b := range c.Members {
			d := h.paths.Dist(a, b)
			row[j] = d
			if j > i && d > max {
				max = d
			}
		}
	}
	c.Diameter = max
}

// rebuildRep (re)materializes the dense representative table from the
// level structure. Cost is O(height × nodes); mutations are rare next to
// the millions of Rep probes the planners make between them.
func (h *Hierarchy) rebuildRep() {
	n := h.g.NumNodes()
	height := len(h.lvls)
	if cap(h.rep) < height {
		h.rep = make([][]netgraph.NodeID, height)
	}
	h.rep = h.rep[:height]
	for l := range h.rep {
		if cap(h.rep[l]) < n {
			h.rep[l] = make([]netgraph.NodeID, n)
		}
		h.rep[l] = h.rep[l][:n]
	}
	for v := 0; v < n; v++ {
		r := netgraph.NodeID(v)
		if h.lvls[0].byNode[r] == nil {
			// Not part of the hierarchy (e.g. removed): poison every level
			// so Rep keeps panicking exactly where the chain walk did.
			for l := 0; l < height; l++ {
				h.rep[l][v] = -1
			}
			continue
		}
		h.rep[0][v] = r
		for l := 1; l < height; l++ {
			c := h.lvls[l-1].byNode[r]
			if c == nil {
				for ; l < height; l++ {
					h.rep[l][v] = -1
				}
				break
			}
			r = c.Coordinator
			h.rep[l][v] = r
		}
	}
}

// MustBuild is Build but panics on error; convenient in experiments where
// the configuration is static and known-good.
func MustBuild(g *netgraph.Graph, paths *netgraph.Paths, maxCS int, rng *rand.Rand) *Hierarchy {
	h, err := Build(g, paths, maxCS, rng)
	if err != nil {
		panic(err)
	}
	return h
}

// Graph returns the underlying physical network.
func (h *Hierarchy) Graph() *netgraph.Graph { return h.g }

// Paths returns the all-pairs cost snapshot the hierarchy was built over.
func (h *Hierarchy) Paths() *netgraph.Paths { return h.paths }

// MaxCS returns the cluster size cap.
func (h *Hierarchy) MaxCS() int { return h.maxCS }

// Height returns the number of levels.
func (h *Hierarchy) Height() int { return len(h.lvls) }

// LevelAt returns the given 1-based level.
func (h *Hierarchy) LevelAt(i int) *Level {
	if i < 1 || i > len(h.lvls) {
		panic(fmt.Sprintf("hierarchy: level %d out of range [1,%d]", i, len(h.lvls)))
	}
	return h.lvls[i-1]
}

// Top returns the single top-level cluster.
func (h *Hierarchy) Top() *Cluster {
	top := h.lvls[len(h.lvls)-1]
	return top.Clusters[0]
}

// ClusterOf returns the cluster containing node v at the given level. The
// node must be present at that level (at level 1 every active node is; at
// level l >= 2 only coordinators promoted from below are). Returns nil if
// v is not present at the level.
func (h *Hierarchy) ClusterOf(v netgraph.NodeID, level int) *Cluster {
	return h.LevelAt(level).byNode[v]
}

// Contains reports whether node v is still part of the hierarchy (it may
// have been removed via RemoveNode).
func (h *Hierarchy) Contains(v netgraph.NodeID) bool {
	return h.lvls[0].byNode[v] != nil
}

// Rep returns the node that represents physical node v at the given level:
// v itself at level 1, otherwise the coordinator chain up the hierarchy.
// The chain is precomputed into the dense rep table, so the answer is a
// single array index (the equivalence with the explicit walk, including
// after maintenance operations, is pinned by TestRepTableMatchesChainWalk).
func (h *Hierarchy) Rep(v netgraph.NodeID, level int) netgraph.NodeID {
	if level == 1 {
		// The chain walk is empty at level 1: v is returned as-is even if
		// it is no longer part of the hierarchy.
		return v
	}
	if level < 1 || level > len(h.lvls) {
		panic(fmt.Sprintf("hierarchy: level %d out of range [1,%d]", level, len(h.lvls)))
	}
	r := h.rep[level-1][v]
	if r < 0 {
		panic(fmt.Sprintf("hierarchy: node %d not present at level %d", v, level))
	}
	return r
}

// EstCost returns the estimated traversal cost between physical nodes a
// and b as seen at the given level: the physical path cost between their
// level-l representatives. At level 1 this is the actual cost.
func (h *Hierarchy) EstCost(a, b netgraph.NodeID, level int) float64 {
	return h.paths.Dist(h.Rep(a, level), h.Rep(b, level))
}

// SumD returns Σ_{i<level} 2·d_i, the Theorem 1 bound on the gap between
// estimated cost at the given level and actual cost.
func (h *Hierarchy) SumD(level int) float64 {
	sum := 0.0
	for i := 1; i < level; i++ {
		sum += 2 * h.lvls[i-1].MaxDiameter()
	}
	return sum
}

// ChildCluster returns the cluster at level-1 whose coordinator is m,
// i.e. the partition that member m of a level-l cluster stands for.
// For level == 1 there is no child; it returns nil.
func (h *Hierarchy) ChildCluster(m netgraph.NodeID, level int) *Cluster {
	if level <= 1 {
		return nil
	}
	return h.lvls[level-2].byNode[m]
}

// Cover returns all physical nodes under cluster c (its transitive
// membership). The result is cached; mutations invalidate the cache. The
// cache is internally locked so concurrent planners may share one
// hierarchy; callers must treat the returned slice as read-only.
func (h *Hierarchy) Cover(c *Cluster) []netgraph.NodeID {
	h.coverMu.Lock()
	defer h.coverMu.Unlock()
	return h.coverLocked(c)
}

func (h *Hierarchy) coverLocked(c *Cluster) []netgraph.NodeID {
	if got, ok := h.cover[c]; ok {
		h.obsHits.Inc()
		return got
	}
	h.obsMisses.Inc()
	var out []netgraph.NodeID
	if c.Level == 1 {
		out = append([]netgraph.NodeID(nil), c.Members...)
	} else {
		for _, m := range c.Members {
			out = append(out, h.coverLocked(h.ChildCluster(m, c.Level))...)
		}
	}
	h.cover[c] = out
	return out
}

func (h *Hierarchy) invalidate() {
	h.coverMu.Lock()
	h.cover = map[*Cluster][]netgraph.NodeID{}
	h.coverMu.Unlock()
}

// NumClusters returns the total number of clusters across all levels.
func (h *Hierarchy) NumClusters() int {
	n := 0
	for _, l := range h.lvls {
		n += len(l.Clusters)
	}
	return n
}

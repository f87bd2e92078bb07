package core

// SolveWork returns the number of candidate plan fragments one
// Solve/SolveCost call examines for a k-way join whose inputs are the k
// base streams, placed over m candidate sites. It mirrors the DP's loop
// structure (validated against a direct enumeration of the loops in
// tests):
//
//   - each of the k single-stream submasks relaxes its input into every
//     site: k·m candidates;
//   - each submask s with |s| = j ≥ 2 — there are C(k,j) of them —
//     enumerates its 2^(j−1)−1 canonical splits at each of the m sites,
//     then folds "operator at u, shipped to v" into availability with an
//     m×m sweep: C(k,j)·(m·(2^(j−1)−1) + m²) candidates;
//   - the root realization scans the goal's m operator placements.
//
// The kernel skips the goal's own m×m fold, whose results nothing reads
// (the root realization reads opCost directly), so for k ≥ 2 it does m²
// fewer candidates than counted here. The figure keeps that fold so the
// plans/s series in BENCH_planner.json keeps one unit across kernels.
//
// This is the honest "plans considered" figure for the Solve benchmarks.
// The DP covers the nominal exhaustive tree×placement space
// (cost.ClusterSpace = NumTrees(k)·m^(k−1), ≈3×10⁹ at k=6, m=32) while
// examining only SolveWork(k, m) candidates (≈68K at k=6, m=32) — shared
// subproblems are the whole point of the formulation. Dividing
// ClusterSpace by wall-clock time, as the benchmarks once did, yields
// absurd 10¹⁴ plans/s figures that measure the size of the space the DP
// avoids enumerating, not the rate at which it does anything.
func SolveWork(k, m int) float64 {
	if k < 1 || m < 1 {
		return 0
	}
	mf := float64(m)
	if k == 1 {
		// Relax the lone input into every site, then pick it at the root.
		return mf + 1
	}
	work := float64(k) * mf
	binom := float64(k) // C(k, 1)
	for j := 2; j <= k; j++ {
		binom = binom * float64(k-j+1) / float64(j) // C(k, j)
		splits := float64(int(1)<<uint(j-1)) - 1
		work += binom * (mf*splits + mf*mf)
	}
	return work + mf // root: the goal's operator placements
}

package solve

import (
	"context"
	"fmt"
	"math"
	"time"

	"versiondb/internal/graph"
)

// lmgOptions configures the Local Move Greedy heuristic.
type lmgOptions struct {
	// Budget is the total storage budget W (paper Algorithm 1). It must be
	// at least the minimum spanning tree / arborescence storage cost.
	Budget float64
	// Freq, when non-nil, holds per-version access frequencies (length
	// M.N()); LMG then minimizes the weighted sum of recreation costs
	// (paper §5.3, Fig. 16). Nil means uniform weights. The registry
	// validates it (length, finite, non-negative) before lmgRun sees it.
	Freq []float64
	// NaiveSubtree disables the O(1) subtree-aggregate maintenance and
	// recomputes the ρ numerator by walking each subtree, giving the
	// O(|V|³) variant the paper mentions before optimizing to O(|V|²).
	// For ablation benchmarks only.
	NaiveSubtree bool
	// MST and SPT, when non-nil, are used instead of recomputing the
	// minimum-storage and shortest-path trees. The running-time experiment
	// (Fig. 17) times LMG proper separately from its inputs this way.
	MST, SPT *Solution
}

// lmgRun runs the Local Move Greedy heuristic (paper §4.1, Algorithm 1):
// start from the minimum-storage tree, repeatedly replace a tree edge with
// the SPT edge maximizing
//
//	ρ = (reduction in Σ recreation costs) / (increase in storage cost)
//
// while the storage budget holds. It backs the registered "lmg" solver
// (Problem 3) and "p5" (Problem 5, via problem5Run's binary search); ctx
// is checked once per local move.
func lmgRun(ctx context.Context, inst *Instance, opts lmgOptions) (*Solution, error) {
	mst, spt := opts.MST, opts.SPT
	var err error
	if mst == nil {
		if mst, err = MinStorage(inst); err != nil {
			return nil, err
		}
	}
	if spt == nil {
		if spt, err = MinRecreation(inst); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	if opts.Budget < mst.Storage {
		return nil, fmt.Errorf("solve: LMG budget %g below minimum storage %g: %w", opts.Budget, mst.Storage, ErrInfeasible)
	}
	n := inst.G.N()
	weight := make([]float64, n)
	if opts.Freq != nil {
		copy(weight[1:], opts.Freq)
	} else {
		for v := 1; v < n; v++ {
			weight[v] = 1
		}
	}

	t := mst.Tree.Clone()
	curStorage := mst.Storage
	// ξ: SPT edges not currently in the tree; once swapped in, an edge's
	// target keeps it forever, so candidacy is simply "differs from tree".
	used := make([]bool, n)
	for {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		r := t.RecreationCosts()
		agg := subtreeAggregate(t, weight, opts.NaiveSubtree)
		tin, tout := eulerTimes(t)
		bestRho := 0.0
		bestV := -1
		var bestEdge graph.Edge
		var bestDS float64
		for v := 1; v < n; v++ {
			if used[v] || spt.Tree.Parent[v] == t.Parent[v] {
				continue
			}
			e := spt.Tree.EdgeTo(v)
			u := e.From
			// Re-parenting v under a vertex of its own subtree would
			// disconnect it from the root.
			if tin[u] >= tin[v] && tout[u] <= tout[v] {
				continue
			}
			dR := r[v] - (r[u] + e.Recreate)
			if dR <= 0 {
				continue
			}
			dS := e.Storage - t.Storage[v]
			if curStorage+dS > opts.Budget {
				continue
			}
			var rho float64
			if dS <= 0 {
				rho = math.Inf(1)
			} else {
				rho = agg[v] * dR / dS
			}
			if rho > bestRho {
				bestRho, bestV, bestEdge, bestDS = rho, v, e, dS
			}
		}
		if bestV < 0 {
			break
		}
		t.SetEdge(bestEdge)
		used[bestV] = true
		curStorage += bestDS
	}
	s := newSolution("LMG", opts.Budget, t, start)
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("solve: LMG produced invalid tree: %w", err)
	}
	return s, nil
}

// subtreeAggregate returns, per vertex, the sum of weights over its subtree.
// With unit weights this is the paper's "number of nodes below" count that
// makes the ρ numerator O(1).
func subtreeAggregate(t *graph.Tree, weight []float64, naive bool) []float64 {
	n := t.N()
	agg := make([]float64, n)
	if naive {
		// Deliberately quadratic: climb to the root from every vertex.
		for v := 0; v < n; v++ {
			for u := v; u != -1; u = t.Parent[u] {
				agg[u] += weight[v]
			}
		}
		return agg
	}
	order := t.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		agg[v] += weight[v]
		if p := t.Parent[v]; p >= 0 {
			agg[p] += agg[v]
		}
	}
	return agg
}

// eulerTimes returns entry/exit indices of a DFS over the tree, giving O(1)
// ancestor tests: u is in v's subtree iff tin[v] ≤ tin[u] and tout[u] ≤ tout[v].
func eulerTimes(t *graph.Tree) (tin, tout []int) {
	n := t.N()
	ch := t.Children()
	tin = make([]int, n)
	tout = make([]int, n)
	clock := 0
	type frame struct{ v, idx int }
	stack := []frame{{t.Root, 0}}
	tin[t.Root] = clock
	clock++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx < len(ch[f.v]) {
			c := ch[f.v][f.idx]
			f.idx++
			tin[c] = clock
			clock++
			stack = append(stack, frame{c, 0})
			continue
		}
		tout[f.v] = clock
		clock++
		stack = stack[:len(stack)-1]
	}
	return tin, tout
}

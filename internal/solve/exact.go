package solve

import (
	"context"
	"fmt"
	"sort"
	"time"

	"versiondb/internal/graph"
)

// ctxCheckInterval is how many branch-and-bound nodes exactRun expands
// between context checks — frequent enough to abort within microseconds,
// rare enough to stay off the profile.
const ctxCheckInterval = 4096

// exactRun solves Problem 6 exactly (min total storage subject to max
// recreation ≤ θ) by branch and bound over parent assignments, assigning
// a parent to each version vertex in turn. It replaces the paper's §2.3
// ILP / Gurobi setup: same objective, same constraints, provably optimal
// when the search completes. It backs the registered "exact" solver.
//
// Completeness: every spanning tree corresponds to exactly one parent
// function, and the search enumerates all cycle-free parent functions.
// Pruning: (a) admissible storage lower bound — each unassigned vertex
// contributes at least its cheapest feasible in-edge; (b) an admissible
// recreation lower bound along partially assigned chains (unassigned
// ancestors bounded by their Φ shortest-path distance); (c) incremental
// cycle rejection.
//
// maxNodes caps the number of search nodes expanded; ≤ 0 means 5e6. When
// the cap is hit the best solution found so far is returned with
// Optimal=false — matching the paper's experience with the Gurobi ILP,
// which "did not finish" on the larger Table 2 instances. Cancellation
// abandons the search (including any incumbent) and returns ErrCanceled.
func exactRun(ctx context.Context, inst *Instance, theta float64, maxNodes int64) (*Result, error) {
	start := time.Now()
	if maxNodes <= 0 {
		maxNodes = 5_000_000
	}
	g := inst.G
	n := g.N()
	// One absolute tolerance used by every θ comparison (feasibility
	// filter, chain pruning, leaf acceptance); mixing strict and tolerant
	// checks would prune boundary optima that sit exactly on θ.
	thetaTol := theta + 1e-9
	_, sp, err := graph.SPT(g, Root, graph.ByRecreate)
	if err != nil {
		return nil, fmt.Errorf("solve: exact: %w", err)
	}
	for v := 1; v < n; v++ {
		if sp[v] > thetaTol {
			return nil, fmt.Errorf("solve: exact: θ=%g, version vertex %d needs ≥ %g: %w", theta, v, sp[v], ErrInfeasible)
		}
	}
	// Candidate in-edges per vertex, cheapest storage first, filtered by the
	// recreation lower bound through their tail.
	in := make([][]graph.Edge, n)
	for v := 0; v < n; v++ {
		for _, e := range g.Out(v) {
			if e.To != Root && sp[e.From]+e.Recreate <= thetaTol {
				in[e.To] = append(in[e.To], e)
			}
		}
	}
	minIn := make([]float64, n)
	for v := 1; v < n; v++ {
		if len(in[v]) == 0 {
			return nil, fmt.Errorf("solve: exact: vertex %d has no feasible in-edge under θ=%g: %w", v, theta, ErrInfeasible)
		}
		sort.Slice(in[v], func(a, b int) bool { return in[v][a].Storage < in[v][b].Storage })
		minIn[v] = in[v][0].Storage
	}
	// Assign vertices with fewer options first (fail-first heuristic).
	order := make([]int, 0, n-1)
	for v := 1; v < n; v++ {
		order = append(order, v)
	}
	sort.Slice(order, func(a, b int) bool { return len(in[order[a]]) < len(in[order[b]]) })
	// lbSuffix[k] = Σ minIn over order[k:].
	lbSuffix := make([]float64, len(order)+1)
	for k := len(order) - 1; k >= 0; k-- {
		lbSuffix[k] = lbSuffix[k+1] + minIn[order[k]]
	}

	// Seed the incumbent with MP so pruning bites immediately.
	best := graph.Inf
	var bestTree *graph.Tree
	if mp, err := mpRun(ctx, inst, theta); err == nil {
		best = mp.Storage
		bestTree = mp.Tree
	}

	parent := make([]int, n)
	edge := make([]graph.Edge, n)
	for v := range parent {
		parent[v] = -1
	}

	// chainLB walks assigned parents from v, accumulating Φ; unassigned
	// ancestors are bounded below by their shortest-path distance. Returns
	// the lower bound and whether the walk closed a cycle through `avoid`.
	chainLB := func(v, avoid int) (float64, bool) {
		var acc float64
		u := v
		// A simple parent chain has at most n hops; exceeding that means
		// the walk closed a cycle that bypassed `avoid`.
		for steps := 0; steps <= n; steps++ {
			if u == Root {
				return acc, false
			}
			p := parent[u]
			if p == -1 {
				return acc + sp[u], false
			}
			acc += edge[u].Recreate
			if p == avoid {
				return 0, true
			}
			u = p
		}
		return 0, true
	}

	var nodes int64
	var ctxErr error
	var rec func(k int, cost float64)
	rec = func(k int, cost float64) {
		nodes++
		if nodes > maxNodes || ctxErr != nil {
			return
		}
		if nodes%ctxCheckInterval == 0 {
			if ctxErr = checkCtx(ctx); ctxErr != nil {
				return
			}
		}
		if k == len(order) {
			// All parents assigned and cycle-free; verify θ exactly.
			t := graph.NewTree(n, Root)
			for v := 1; v < n; v++ {
				t.SetEdge(edge[v])
			}
			if t.MaxRecreation() <= thetaTol && cost < best {
				best = cost
				bestTree = t
			}
			return
		}
		v := order[k]
		for _, e := range in[v] {
			nc := cost + e.Storage
			if nc+lbSuffix[k+1] >= best {
				// in[v] is sorted by storage, so no later edge can help
				// unless the bound changes; still must try others because
				// chain feasibility differs. Cheap cut: storage bound is
				// monotone in e.Storage, so we can stop scanning.
				break
			}
			parent[v] = e.From
			edge[v] = e
			// Any cycle created by this assignment must pass through v, so
			// a single ancestor walk from v both detects cycles and yields
			// the admissible recreation lower bound of v's chain.
			if lb, cyc := chainLB(v, v); !cyc && lb <= thetaTol {
				rec(k+1, nc)
			}
			parent[v] = -1
			if nodes > maxNodes || ctxErr != nil {
				return
			}
		}
	}
	rec(0, 0)

	if ctxErr != nil {
		return nil, ctxErr
	}
	if bestTree == nil {
		return nil, fmt.Errorf("solve: exact: no feasible tree under θ=%g: %w", theta, ErrInfeasible)
	}
	sol := newSolution("Exact", theta, bestTree, start)
	return &Result{Solution: sol, Solver: "exact", Optimal: nodes <= maxNodes, Nodes: nodes}, nil
}

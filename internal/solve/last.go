package solve

import (
	"context"
	"fmt"
	"time"

	"versiondb/internal/graph"
)

// lastRun adapts Khuller, Raghavachari and Young's algorithm for
// balancing minimum spanning trees and shortest path trees (paper §4.3,
// Algorithm 3). Starting from the minimum-storage tree it performs a
// depth-first traversal, relaxing path costs across tree edges in both
// directions; when a vertex's path cost exceeds alpha times its
// shortest-path distance, the vertex is re-attached along its shortest
// path.
//
// For undirected Φ=Δ instances the result satisfies the LAST guarantees:
// every root path within α of the shortest path and total weight within
// (1 + 2/(α−1)) of the MST. For directed instances it applies without
// guarantees, exactly as the paper does. alpha must exceed 1. It backs the
// registered "last" solver; ctx is checked per DFS vertex and per cycle
// repair, and hints (when given) supply the precomputed MST and SPT.
func lastRun(ctx context.Context, inst *Instance, alpha float64, hints *Hints) (*Solution, error) {
	start := time.Now()
	var mst *Solution
	if hints != nil {
		mst = hints.MST
	}
	if mst == nil {
		var err error
		if mst, err = MinStorage(inst); err != nil {
			return nil, err
		}
	}
	var sptTree *graph.Tree
	var sp []float64
	if hints != nil && hints.SPT != nil {
		// Dijkstra set each distance to its tree parent's plus the tree
		// edge's Φ; summing Φ root-down repeats exactly those additions,
		// so these distances equal graph.SPT's bit for bit.
		sptTree = hints.SPT.Tree
		sp = sptTree.RecreationCosts()
	} else {
		var err error
		if sptTree, sp, err = graph.SPT(inst.G, Root, graph.ByRecreate); err != nil {
			return nil, err
		}
	}
	g := inst.G
	n := g.N()
	lut := edgeLookup(g, graph.ByRecreate)

	d := make([]float64, n)
	parentEdge := make([]graph.Edge, n)
	inited := make([]bool, n)
	for v := range d {
		d[v] = graph.Inf
	}
	d[Root] = 0
	inited[Root] = true

	// relax updates v's attachment through edge e when it improves d[v].
	relax := func(e graph.Edge) {
		if nd := d[e.From] + e.Recreate; nd < d[e.To] {
			d[e.To] = nd
			parentEdge[e.To] = e
			inited[e.To] = true
		}
	}
	// addPath re-attaches vertex c along its shortest path (Khuller et
	// al.'s ADD-PATH): walking the SPT root→c path top-down, every vertex
	// whose current cost exceeds its shortest-path distance snaps to its
	// SPT parent. Re-parenting only c itself would break the invariant
	// d[to] ≥ d[from] + w that keeps the parent assignment acyclic.
	addPath := func(c int) {
		path := sptTree.PathFromRoot(c)
		for _, b := range path[1:] { // skip the root
			if d[b] > sp[b] {
				d[b] = sp[b]
				parentEdge[b] = sptTree.EdgeTo(b)
				inited[b] = true
			}
		}
	}
	// DFS over the MST skeleton. Descending into c relaxes across the tree
	// edge, then checks the α condition (lines 8-12); returning from c
	// relaxes the reverse edge when the graph has one (the "back-edge"
	// traversal of the paper's Example 6).
	ch := mst.Tree.Children()
	var ctxErr error
	var dfs func(v int)
	dfs = func(v int) {
		if ctxErr != nil {
			return
		}
		if ctxErr = checkCtx(ctx); ctxErr != nil {
			return
		}
		for _, c := range ch[v] {
			relax(mst.Tree.EdgeTo(c))
			if d[c] > alpha*sp[c] {
				addPath(c)
			}
			dfs(c)
			if rev, ok := lut[[2]int{c, v}]; ok {
				relax(rev)
			}
		}
	}
	dfs(Root)
	if ctxErr != nil {
		return nil, ctxErr
	}

	t := graph.NewTree(n, Root)
	for v := 0; v < n; v++ {
		if v == Root {
			continue
		}
		if !inited[v] {
			return nil, fmt.Errorf("solve: LAST left vertex %d unattached", v)
		}
		t.SetEdge(parentEdge[v])
	}
	// Zero-weight edges (or directed instances, where the guarantees do not
	// apply) can still in principle yield a parent cycle. Break any cycle
	// by snapping a cycle vertex that is not yet on its SPT edge to its SPT
	// parent; each repair converts one vertex permanently, so this
	// terminates, and the SPT itself is acyclic.
	for iter := 0; t.Validate() != nil; iter++ {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		if iter > n {
			return nil, fmt.Errorf("solve: LAST could not repair cycles")
		}
		v := findCycleVertex(t)
		if v < 0 {
			break
		}
		fixed := false
		u := v
		// The cycle has at most n vertices, so the walk revisits v (or
		// repairs an edge) within n steps.
		for steps := 0; steps <= n; steps++ {
			se := sptTree.EdgeTo(u)
			if t.Parent[u] != se.From || t.Recreate[u] != se.Recreate || t.Storage[u] != se.Storage {
				t.SetEdge(se)
				fixed = true
				break
			}
			u = t.Parent[u]
			if u == v {
				break
			}
		}
		if !fixed {
			return nil, fmt.Errorf("solve: LAST cycle consists of SPT edges (corrupt SPT)")
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("solve: LAST produced invalid tree: %w", err)
	}
	return newSolution("LAST", alpha, t, start), nil
}

// findCycleVertex returns a vertex lying on a parent-pointer cycle, or -1.
func findCycleVertex(t *graph.Tree) int {
	n := t.N()
	state := make([]byte, n)
	state[t.Root] = 2
	for v := 0; v < n; v++ {
		if state[v] != 0 {
			continue
		}
		var path []int
		u := v
		for u != -1 && state[u] == 0 {
			state[u] = 1
			path = append(path, u)
			u = t.Parent[u]
		}
		if u != -1 && state[u] == 1 {
			return u
		}
		for _, w := range path {
			state[w] = 2
		}
	}
	return -1
}

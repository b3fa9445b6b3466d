package solve

import (
	"context"
	"fmt"
	"time"

	"versiondb/internal/graph"
	"versiondb/internal/heaps"
)

// mpRun runs the Modified Prim's algorithm (paper §4.2, Algorithm 2) for
// Problem 6: minimize total storage subject to every recreation cost being
// at most theta. Like Prim's, it grows the tree by the vertex with the
// smallest marginal storage cost l(v); unlike Prim's, a vertex already in
// the tree may be re-parented later when a cheaper delta that does not
// worsen its recreation cost appears.
//
// It returns an error wrapping ErrInfeasible when no tree satisfies the
// bound (θ smaller than some version's cheapest attainable recreation
// cost). It backs the registered "mp" solver, problem4Run's search and
// exactRun's incumbent; ctx is checked once per extracted vertex.
func mpRun(ctx context.Context, inst *Instance, theta float64) (*Solution, error) {
	start := time.Now()
	g := inst.G
	n := g.N()
	l := make([]float64, n) // marginal storage cost of v via p[v]
	d := make([]float64, n) // recreation cost bound of v via its chain
	p := make([]int, n)
	edge := make([]graph.Edge, n)
	inX := make([]bool, n)
	for v := range l {
		l[v] = graph.Inf
		d[v] = graph.Inf
		p[v] = -1
	}
	l[Root], d[Root] = 0, 0
	pq := heaps.NewBinary(n)
	pq.Push(Root, 0)
	added := 0
	for pq.Len() > 0 {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		i, _ := pq.Pop()
		if inX[i] {
			continue
		}
		inX[i] = true
		added++
		for _, e := range g.Out(i) {
			j := e.To
			nd := d[i] + e.Recreate
			if inX[j] {
				if j == Root {
					continue
				}
				// Re-parent j when the delta is no larger and the
				// recreation bound does not degrade (line 10-17); require
				// strict gain on one side to avoid no-op churn, and refuse
				// moves that would hang j below its own subtree.
				if nd <= d[j] && e.Storage <= l[j] && (nd < d[j] || e.Storage < l[j]) && !inSubtree(p, j, i) {
					p[j] = i
					d[j] = nd
					l[j] = e.Storage
					edge[j] = e
				}
			} else if nd <= theta && e.Storage < l[j] {
				d[j] = nd
				l[j] = e.Storage
				p[j] = i
				edge[j] = e
				pq.Push(j, l[j])
			}
		}
	}
	if added != n {
		return nil, fmt.Errorf("solve: MP: θ=%g, only %d of %d vertices attachable: %w", theta, added, n, ErrInfeasible)
	}
	t := graph.NewTree(n, Root)
	for v := 0; v < n; v++ {
		if v != Root {
			t.SetEdge(edge[v])
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("solve: MP produced invalid tree: %w", err)
	}
	s := newSolution("MP", theta, t, start)
	if s.MaxR > theta+1e-9 {
		return nil, fmt.Errorf("solve: MP exceeded bound: maxR %g > θ %g", s.MaxR, theta)
	}
	return s, nil
}

// inSubtree reports whether candidate is in the parent-forest subtree rooted
// at v (i.e. v is an ancestor of candidate), which would make re-parenting v
// under candidate a cycle.
func inSubtree(parent []int, v, candidate int) bool {
	for u := candidate; u != -1; u = parent[u] {
		if u == v {
			return true
		}
	}
	return false
}

package graph

import (
	"fmt"

	"versiondb/internal/heaps"
)

// SPT computes the shortest path tree from root using Dijkstra's algorithm
// over the selected weight (the paper's Problem 2 solver when run with
// ByRecreate on the augmented graph), together with every vertex's
// shortest-path distance from root — LAST and the exact solver's bound
// consume these. Weights must be non-negative. It returns an error if some
// vertex is unreachable.
func SPT(g *Graph, root int, w Weight) (*Tree, []float64, error) {
	n := g.N()
	dist := make([]float64, n)
	best := make([]Edge, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[root] = 0
	t := NewTree(n, root)
	pq := heaps.NewBinary(n)
	pq.Push(root, 0)
	reached := 0
	for pq.Len() > 0 {
		v, d := pq.Pop()
		if done[v] {
			continue
		}
		done[v] = true
		reached++
		if v != root {
			t.SetEdge(best[v])
		}
		for _, e := range g.Out(v) {
			c := e.Cost(w)
			if c < 0 {
				return nil, nil, fmt.Errorf("graph: negative %v weight %g on edge (%d,%d)", w, c, e.From, e.To)
			}
			if nd := d + c; !done[e.To] && nd < dist[e.To] {
				dist[e.To] = nd
				best[e.To] = e
				pq.Push(e.To, nd)
			}
		}
	}
	if reached != n {
		return nil, nil, fmt.Errorf("graph: %d of %d vertices unreachable from %d", n-reached, n, root)
	}
	return t, dist, nil
}

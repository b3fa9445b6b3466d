package graph

import (
	"fmt"
	"sort"

	"versiondb/internal/heaps"
	"versiondb/internal/uf"
)

// PrimMST computes a minimum spanning tree of an undirected graph rooted at
// root, minimizing the selected weight. It returns an error if the graph is
// disconnected. Runs in O(E log V) with the binary heap.
func PrimMST(g *Graph, root int, w Weight) (*Tree, error) {
	if g.Directed() {
		return nil, fmt.Errorf("graph: PrimMST requires an undirected graph; use MCA")
	}
	n := g.N()
	t := NewTree(n, root)
	best := make([]Edge, n)
	dist := make([]float64, n)
	inTree := make([]bool, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[root] = 0
	pq := heaps.NewBinary(n)
	pq.Push(root, 0)
	visited := 0
	for pq.Len() > 0 {
		v, _ := pq.Pop()
		if inTree[v] {
			continue
		}
		inTree[v] = true
		visited++
		if v != root {
			t.SetEdge(best[v])
		}
		for _, e := range g.Out(v) {
			u := e.To
			c := e.Cost(w)
			if !inTree[u] && c < dist[u] {
				dist[u] = c
				best[u] = e
				pq.Push(u, c)
			}
		}
	}
	if visited != n {
		return nil, fmt.Errorf("graph: disconnected: reached %d of %d vertices from %d", visited, n, root)
	}
	return t, nil
}

// KruskalMST computes a minimum spanning tree of an undirected graph by
// sorting edges and union-find, then orients it away from root. Runs in
// O(E log E).
func KruskalMST(g *Graph, root int, w Weight) (*Tree, error) {
	if g.Directed() {
		return nil, fmt.Errorf("graph: KruskalMST requires an undirected graph; use MCA")
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool { return edges[i].Cost(w) < edges[j].Cost(w) })
	n := g.N()
	u := uf.New(n)
	chosen := make([][]Edge, n) // undirected adjacency over chosen edges
	taken := 0
	for _, e := range edges {
		if u.Union(e.From, e.To) {
			chosen[e.From] = append(chosen[e.From], e)
			rev := Edge{From: e.To, To: e.From, Storage: e.Storage, Recreate: e.Recreate}
			chosen[e.To] = append(chosen[e.To], rev)
			taken++
			if taken == n-1 {
				break
			}
		}
	}
	if taken != n-1 {
		return nil, fmt.Errorf("graph: disconnected: spanning forest has %d edges, need %d", taken, n-1)
	}
	// Orient away from root with a BFS.
	t := NewTree(n, root)
	seen := make([]bool, n)
	seen[root] = true
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range chosen[v] {
			if !seen[e.To] {
				seen[e.To] = true
				t.SetEdge(e)
				queue = append(queue, e.To)
			}
		}
	}
	return t, nil
}

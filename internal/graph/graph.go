// Package graph provides the dual-weighted graph model used throughout the
// module, plus the classic spanning-structure algorithms the paper builds
// on: Prim's and Kruskal's minimum spanning trees for the undirected case,
// the minimum-cost arborescence for the directed case (Tarjan's
// O(E log V) form of Chu–Liu/Edmonds), and Dijkstra's shortest path tree.
//
// Every edge carries two weights, mirroring the ⟨Δ, Φ⟩ annotations of the
// paper: Storage (the bytes needed to store the delta, Δij) and Recreate
// (the time to apply it, Φij). In the augmented graph of §2.2 vertex 0 is
// the dummy root V0 and an edge 0→i carries the full materialization costs
// ⟨Δii, Φii⟩ of version i.
package graph

import (
	"fmt"
	"math"
)

// Weight selects which of the two edge weights an algorithm optimizes.
type Weight int

const (
	// ByStorage optimizes the Δ (storage cost) weight.
	ByStorage Weight = iota
	// ByRecreate optimizes the Φ (recreation cost) weight.
	ByRecreate
)

// String implements fmt.Stringer.
func (w Weight) String() string {
	switch w {
	case ByStorage:
		return "storage"
	case ByRecreate:
		return "recreate"
	default:
		return fmt.Sprintf("Weight(%d)", int(w))
	}
}

// Edge is a directed edge with the paper's dual ⟨Δ, Φ⟩ annotation.
type Edge struct {
	From, To int
	Storage  float64 // Δ: bytes to store this delta (or full version)
	Recreate float64 // Φ: time to recreate To given From
}

// Cost returns the selected weight of the edge.
func (e Edge) Cost(w Weight) float64 {
	if w == ByStorage {
		return e.Storage
	}
	return e.Recreate
}

// Graph is a weighted graph over vertices [0, N). For undirected graphs
// AddEdge inserts both orientations, so algorithms can treat adjacency
// uniformly as out-edges.
type Graph struct {
	n        int
	m        int // logical edge count (one per AddEdge call)
	directed bool
	out      [][]Edge
}

// New returns an empty graph with n vertices.
func New(n int, directed bool) *Graph {
	return &Graph{n: n, directed: directed, out: make([][]Edge, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of logical edges (each undirected edge counts once).
func (g *Graph) M() int { return g.m }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// AddEdge inserts an edge with the given dual weights. For undirected graphs
// the reverse orientation is inserted as well with identical weights.
// It panics if either endpoint is out of range or the edge is a self-loop.
func (g *Graph) AddEdge(from, to int, storage, recreate float64) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	if from == to {
		panic(fmt.Sprintf("graph: self-loop at %d", from))
	}
	g.out[from] = append(g.out[from], Edge{From: from, To: to, Storage: storage, Recreate: recreate})
	if !g.directed {
		g.out[to] = append(g.out[to], Edge{From: to, To: from, Storage: storage, Recreate: recreate})
	}
	g.m++
}

// Out returns the out-edges of v. The returned slice must not be modified.
func (g *Graph) Out(v int) []Edge { return g.out[v] }

// Edges returns every logical edge once: for directed graphs all edges; for
// undirected graphs the From < To orientation. Since AddEdge stores both
// orientations of an undirected edge, each logical edge — including parallel
// edges between the same pair — appears in exactly one orientation here.
func (g *Graph) Edges() []Edge {
	res := make([]Edge, 0, g.m)
	for v := 0; v < g.n; v++ {
		for _, e := range g.out[v] {
			if g.directed || e.From < e.To {
				res = append(res, e)
			}
		}
	}
	return res
}

// Inf is the infinite cost used for unknown/unrevealed entries.
var Inf = math.Inf(1)

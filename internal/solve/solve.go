// Package solve implements the paper's storage-graph construction
// algorithms — the primary contribution of "Principles of Dataset
// Versioning" (§4): the Local Move Greedy heuristic (LMG), the Modified
// Prim's algorithm (MP), the LAST balanced-tree adaptation, and the GitH
// repack heuristic — together with the polynomial baselines for Problems 1
// and 2 (minimum spanning tree / arborescence and shortest path tree), an
// exact branch-and-bound reference solver standing in for the paper's ILP,
// and sweep drivers that trace out storage/recreation tradeoff curves.
//
// All solvers operate on an Instance: the augmented graph of §2.2 whose
// vertex 0 is the dummy root V0 and whose vertices 1..n are versions 0..n-1
// of the underlying cost Matrix. Solutions are spanning trees of that graph
// (Lemma 1).
package solve

import (
	"fmt"
	"time"

	"versiondb/internal/costs"
	"versiondb/internal/graph"
)

// Root is the dummy vertex V0 in every augmented graph.
const Root = 0

// Instance bundles a cost matrix with its augmented graph.
type Instance struct {
	M *costs.Matrix
	G *graph.Graph
}

// NewInstance builds the augmented graph for m.
func NewInstance(m *costs.Matrix) (*Instance, error) {
	g, err := m.Augment()
	if err != nil {
		return nil, err
	}
	return &Instance{M: m, G: g}, nil
}

// Solution is a storage graph plus its aggregate costs and provenance.
type Solution struct {
	Algorithm string        // producing algorithm, e.g. "LMG"
	Param     float64       // the knob value used (budget, θ, α, ...)
	Tree      *graph.Tree   // the storage graph Gs
	Storage   float64       // C = Σ Δ
	SumR      float64       // Σ Ri over versions
	MaxR      float64       // max Ri
	Elapsed   time.Duration // wall time of the solver call
}

// Evaluate fills the aggregate cost fields from the tree.
func (s *Solution) Evaluate() {
	s.Storage = s.Tree.TotalStorage()
	s.SumR = s.Tree.SumRecreation()
	s.MaxR = s.Tree.MaxRecreation()
}

// newSolution wraps a tree into an evaluated Solution.
func newSolution(alg string, param float64, t *graph.Tree, start time.Time) *Solution {
	s := &Solution{Algorithm: alg, Param: param, Tree: t, Elapsed: time.Since(start)}
	s.Evaluate()
	return s
}

// MinStorage solves Problem 1: the minimum total storage cost solution with
// all recreation costs finite. For undirected instances this is a minimum
// spanning tree (Lemma 2); for directed instances a minimum-cost
// arborescence rooted at V0 (graph.MCA, Tarjan's O(E log V) contraction).
func MinStorage(inst *Instance) (*Solution, error) {
	start := time.Now()
	var t *graph.Tree
	var err error
	if inst.G.Directed() {
		t, err = graph.MCA(inst.G, Root, graph.ByStorage)
	} else {
		t, err = graph.PrimMST(inst.G, Root, graph.ByStorage)
	}
	if err != nil {
		return nil, fmt.Errorf("solve: MinStorage: %w", err)
	}
	return newSolution("MST", 0, t, start), nil
}

// MinRecreation solves Problem 2: every version's recreation cost is
// individually minimized by the shortest path tree on Φ weights (Lemma 3).
func MinRecreation(inst *Instance) (*Solution, error) {
	start := time.Now()
	t, _, err := graph.SPT(inst.G, Root, graph.ByRecreate)
	if err != nil {
		return nil, fmt.Errorf("solve: MinRecreation: %w", err)
	}
	return newSolution("SPT", 0, t, start), nil
}

// edgeLookup builds a (from,to) → Edge map over the augmented graph; LAST
// and LMG use it to find weights of arbitrary graph edges. When several
// parallel edges exist the cheapest by the given weight is kept.
func edgeLookup(g *graph.Graph, w graph.Weight) map[[2]int]graph.Edge {
	lut := make(map[[2]int]graph.Edge, g.M())
	for v := 0; v < g.N(); v++ {
		for _, e := range g.Out(v) {
			k := [2]int{e.From, e.To}
			if old, ok := lut[k]; !ok || e.Cost(w) < old.Cost(w) {
				lut[k] = e
			}
		}
	}
	return lut
}

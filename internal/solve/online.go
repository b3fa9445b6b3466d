package solve

import (
	"context"
	"fmt"
	"sort"

	"versiondb/internal/costs"
)

// The paper studies the static, offline problem and names the online
// variant — decisions as new versions arrive — as future work (§7). This
// file provides that extension: an Online store that places each arriving
// version greedily (minimum delta, or minimum delta under a recreation
// bound) and can periodically re-optimize the whole storage graph with LMG,
// giving the "reevaluate the optimization decisions" behaviour §7 sketches.

// OnlinePolicy selects the per-arrival placement rule.
type OnlinePolicy int

const (
	// OnlineMinDelta stores each arriving version via its cheapest
	// revealed delta (or materializes when that is cheapest) — the online
	// analogue of Problem 1.
	OnlineMinDelta OnlinePolicy = iota
	// OnlineBounded stores via the cheapest delta whose resulting
	// recreation cost stays within Theta, materializing when none does —
	// the online analogue of Problem 6.
	OnlineBounded
)

// OnlineOptions configure an Online store.
type OnlineOptions struct {
	Policy OnlinePolicy
	// Theta is the recreation bound for OnlineBounded.
	Theta float64
	// Directed marks the recorded deltas as asymmetric (affects only the
	// matrix handed to Reoptimize).
	Directed bool
}

// Online incrementally maintains a storage graph as versions arrive.
type Online struct {
	opts    OnlineOptions
	full    []costs.Pair
	deltas  []map[int]costs.Pair // deltas[v]: revealed in-deltas u→v
	parent  []int                // -1 = materialized
	edge    []costs.Pair         // chosen edge costs (full or delta)
	d       []float64            // recreation cost via the chosen chain
	storage float64
}

// NewOnline returns an empty online store.
func NewOnline(opts OnlineOptions) *Online {
	return &Online{opts: opts}
}

// N returns the number of versions added so far.
func (o *Online) N() int { return len(o.full) }

// Storage returns the current total storage cost.
func (o *Online) Storage() float64 { return o.storage }

// RecreationCost returns the current recreation cost of version v.
func (o *Online) RecreationCost(v int) float64 { return o.d[v] }

// SumRecreation returns Σ recreation over all versions.
func (o *Online) SumRecreation() float64 {
	var s float64
	for _, x := range o.d {
		s += x
	}
	return s
}

// MaxRecreation returns the max recreation cost over all versions.
func (o *Online) MaxRecreation() float64 {
	var m float64
	for _, x := range o.d {
		if x > m {
			m = x
		}
	}
	return m
}

// Materialized reports whether version v is stored whole.
func (o *Online) Materialized(v int) bool { return o.parent[v] == -1 }

// Add places an arriving version. full carries its materialization costs
// ⟨Δvv, Φvv⟩; deltasFrom maps existing version ids to the delta costs
// ⟨Δuv, Φuv⟩ revealed against them. It returns the new version's id.
func (o *Online) Add(full costs.Pair, deltasFrom map[int]costs.Pair) (int, error) {
	if full.Storage < 0 || full.Recreate < 0 {
		return 0, fmt.Errorf("solve: online: negative full costs")
	}
	v := len(o.full)
	for u := range deltasFrom {
		if u < 0 || u >= v {
			return 0, fmt.Errorf("solve: online: delta from unknown version %d", u)
		}
	}
	const none = -3
	bestParent := none
	var bestCost, bestD float64
	var bestEdge costs.Pair
	if o.opts.Policy != OnlineBounded || full.Recreate <= o.opts.Theta {
		bestParent = -1 // materialize
		bestCost = full.Storage
		bestEdge = full
		bestD = full.Recreate
	}
	// Deterministic candidate order: ascending source version id.
	order := make([]int, 0, len(deltasFrom))
	for u := range deltasFrom {
		order = append(order, u)
	}
	sort.Ints(order)
	for _, u := range order {
		p := deltasFrom[u]
		nd := o.d[u] + p.Recreate
		if o.opts.Policy == OnlineBounded && nd > o.opts.Theta {
			continue
		}
		if bestParent == none || p.Storage < bestCost {
			bestParent = u
			bestCost = p.Storage
			bestEdge = p
			bestD = nd
		}
	}
	if bestParent == none {
		return 0, fmt.Errorf("solve: online: version cannot meet θ=%g (materialization needs %g)",
			o.opts.Theta, full.Recreate)
	}
	o.full = append(o.full, full)
	stored := map[int]costs.Pair{}
	for u, p := range deltasFrom {
		stored[u] = p
	}
	o.deltas = append(o.deltas, stored)
	o.parent = append(o.parent, bestParent)
	o.edge = append(o.edge, bestEdge)
	o.d = append(o.d, bestD)
	o.storage += bestCost
	return v, nil
}

// Reoptimize rebuilds the storage graph offline over everything recorded so
// far: LMG under budgetFactor × the minimum storage (Problem 3), exactly
// the "reevaluate decisions periodically" loop of §7. It returns the
// offline solution adopted.
func (o *Online) Reoptimize(budgetFactor float64) (*Solution, error) {
	n := len(o.full)
	if n == 0 {
		return nil, fmt.Errorf("solve: online: nothing to reoptimize")
	}
	if budgetFactor < 1 {
		budgetFactor = 1
	}
	m := costs.NewMatrix(n, o.opts.Directed)
	for v, p := range o.full {
		m.SetFull(v, p.Storage, p.Recreate)
	}
	for v, ds := range o.deltas {
		for u, p := range ds {
			m.SetDelta(u, v, p.Storage, p.Recreate)
		}
	}
	inst, err := NewInstance(m)
	if err != nil {
		return nil, err
	}
	mst, err := MinStorage(inst)
	if err != nil {
		return nil, err
	}
	sol, err := lmgRun(context.Background(), inst, lmgOptions{Budget: mst.Storage * budgetFactor, MST: mst})
	if err != nil {
		return nil, err
	}
	// Adopt the offline tree (augmented vertex v+1 ↔ version v).
	r := sol.Tree.RecreationCosts()
	o.storage = sol.Storage
	for v := 0; v < n; v++ {
		vtx := v + 1
		p := sol.Tree.Parent[vtx]
		if p == Root {
			o.parent[v] = -1
			o.edge[v] = o.full[v]
		} else {
			o.parent[v] = p - 1
			o.edge[v] = costs.Pair{Storage: sol.Tree.Storage[vtx], Recreate: sol.Tree.Recreate[vtx]}
		}
		o.d[v] = r[vtx]
	}
	return sol, nil
}

// Snapshot exports the current state as a cost matrix plus chosen parents,
// for inspection and tests.
func (o *Online) Snapshot() (parents []int, d []float64, storage float64) {
	return append([]int(nil), o.parent...), append([]float64(nil), o.d...), o.storage
}

package bench

import (
	"context"
	"fmt"

	"versiondb/internal/solve"
	"versiondb/internal/workload"
)

// Table2Row compares the exact solver and MP at one θ on one instance.
type Table2Row struct {
	Dataset      string
	Versions     int
	Theta        float64
	ExactStorage float64
	MPStorage    float64
	ExactOptimal bool // false when the node budget was hit (paper: "the
	// optimizer did not finish and the reported numbers are the best
	// solutions found by it")
	Nodes int64
}

// Table2 regenerates Table 2: on small synthetic instances with all-pairs
// deltas (the paper's v15/v25/v50), compare the minimum storage found by
// the exact Problem 6 solver against MP across a sweep of θ bounds.
// maxNodes caps each exact search (≤ 0 means the solver's default).
func Table2(sizes []int, thetasPer int, seed int64, maxNodes int64) ([]Table2Row, error) {
	if len(sizes) == 0 {
		sizes = []int{15, 25, 50}
	}
	if thetasPer <= 0 {
		thetasPer = 5
	}
	var rows []Table2Row
	for _, n := range sizes {
		inst, err := smallAllPairs(n, seed)
		if err != nil {
			return nil, err
		}
		thetas, err := solve.Thetas(inst, thetasPer)
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		for _, th := range thetas {
			mp, err := solve.Solve(ctx, inst, solve.Request{Solver: "mp", Theta: th})
			if err != nil {
				continue // infeasible θ, as in the sweep helpers
			}
			ex, err := solve.Solve(ctx, inst, solve.Request{Solver: "exact", Theta: th, MaxNodes: maxNodes})
			if err != nil {
				return nil, fmt.Errorf("bench: table2 v%d θ=%g: %w", n, th, err)
			}
			rows = append(rows, Table2Row{
				Dataset:      fmt.Sprintf("v%d", n),
				Versions:     n,
				Theta:        th,
				ExactStorage: ex.Storage,
				MPStorage:    mp.Storage,
				ExactOptimal: ex.Optimal,
				Nodes:        ex.Nodes,
			})
		}
	}
	return rows, nil
}

// smallAllPairs builds a small dense instance: a linear-ish version graph
// with deltas revealed between all pairs, the construction the paper uses
// for its ILP comparison ("compute deltas between all pairs of versions").
func smallAllPairs(n int, seed int64) (*solve.Instance, error) {
	vg, err := workload.Generate(workload.GraphParams{
		Commits:        n,
		BranchInterval: 3,
		BranchProb:     0.5,
		BranchLimit:    2,
		BranchLength:   3,
		MergeProb:      0.2,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	m, err := vg.SynthCosts(workload.CostParams{
		BaseSize:    100e3,
		SizeDrift:   0.03,
		EditFrac:    0.05,
		EditFracVar: 0.5,
		RevealHops:  n, // all pairs
		Directed:    true,
		ReverseAsym: 1.3,
		Seed:        seed + 1,
	})
	if err != nil {
		return nil, err
	}
	return solve.NewInstance(m)
}

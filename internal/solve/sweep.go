package solve

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// problem4Run minimizes the max recreation cost under storage budget β
// via an outer binary search on θ over the MP algorithm (paper §4.2: "the
// solution for Problem 4 is similar"). It returns the best feasible
// solution found; iters ≤ 0 means 40. It backs the registered "p4"
// solver; ctx is checked once per binary-search step, and hints (when
// given) supply the precomputed MST/SPT envelope.
func problem4Run(ctx context.Context, inst *Instance, beta float64, iters int, hints *Hints) (*Solution, error) {
	mst, spt, err := envelope(inst, hints)
	if err != nil {
		return nil, err
	}
	if beta < mst.Storage {
		return nil, fmt.Errorf("solve: Problem4 budget %g below minimum storage %g: %w", beta, mst.Storage, ErrInfeasible)
	}
	lo, hi := spt.MaxR, mst.MaxR
	if hi < lo {
		hi = lo
	}
	var bestSol *Solution
	// MP(θ=maxR of MST) is always feasible within any β ≥ MST storage only
	// if MP finds a tree at least that good; fall back to the MST itself.
	if s, err := mpRun(ctx, inst, hi); err == nil && s.Storage <= beta {
		bestSol = s
	} else if checkCtx(ctx) != nil {
		return nil, canceled(ctx)
	} else {
		bestSol = mst
	}
	if iters <= 0 {
		iters = 40
	}
	for i := 0; i < iters && hi-lo > 1e-9*(1+hi); i++ {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		mid := (lo + hi) / 2
		s, err := mpRun(ctx, inst, mid)
		if err != nil && !errors.Is(err, ErrInfeasible) {
			return nil, err
		}
		if err == nil && s.Storage <= beta {
			if s.MaxR <= bestSol.MaxR {
				bestSol = s
			}
			hi = mid
		} else {
			lo = mid
		}
	}
	return bestSol, nil
}

// problem5Run minimizes total storage under a bound θ on the sum of
// recreation costs, via binary search on the LMG storage budget (paper
// §4.1: "solved by repeated iterations and binary search"); iters ≤ 0
// means 40. It backs the registered "p5" solver; ctx is checked once per
// binary-search step, and hints (when given) supply the precomputed
// MST/SPT envelope.
func problem5Run(ctx context.Context, inst *Instance, theta float64, iters int, hints *Hints) (*Solution, error) {
	mst, spt, err := envelope(inst, hints)
	if err != nil {
		return nil, err
	}
	if spt.SumR > theta {
		return nil, fmt.Errorf("solve: Problem5 θ=%g, minimum Σ recreation is %g: %w", theta, spt.SumR, ErrInfeasible)
	}
	if mst.SumR <= theta {
		return mst, nil
	}
	lo, hi := mst.Storage, spt.Storage
	best := spt
	if iters <= 0 {
		iters = 40
	}
	for i := 0; i < iters && hi-lo > 1e-9*(1+hi); i++ {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		mid := (lo + hi) / 2
		s, err := lmgRun(ctx, inst, lmgOptions{Budget: mid, MST: mst, SPT: spt})
		if err != nil {
			return nil, err
		}
		if s.SumR <= theta {
			if s.Storage <= best.Storage {
				best = s
			}
			hi = mid
		} else {
			lo = mid
		}
	}
	return best, nil
}

// envelope returns the MST/SPT pair bounding every tradeoff, reusing hints
// when a sweep driver precomputed them.
func envelope(inst *Instance, hints *Hints) (mst, spt *Solution, err error) {
	if hints != nil {
		mst, spt = hints.MST, hints.SPT
	}
	if mst == nil {
		if mst, err = MinStorage(inst); err != nil {
			return nil, nil, err
		}
	}
	if spt == nil {
		if spt, err = MinRecreation(inst); err != nil {
			return nil, nil, err
		}
	}
	return mst, spt, nil
}

// geometric interpolates k values geometrically between lo and hi.
func geometric(lo, hi float64, k int) []float64 {
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		f := float64(i) / float64(max(k-1, 1))
		out[i] = lo * math.Pow(hi/lo, f)
	}
	return out
}

// Budgets returns k storage budgets interpolated geometrically between the
// minimum-storage cost and the SPT (everything-materialized-at-best) cost,
// the x-axis of the paper's Figures 13–15 tradeoff curves.
func Budgets(inst *Instance, k int) ([]float64, error) {
	mst, err := MinStorage(inst)
	if err != nil {
		return nil, err
	}
	spt, err := MinRecreation(inst)
	if err != nil {
		return nil, err
	}
	lo, hi := mst.Storage, spt.Storage
	if hi <= lo {
		hi = lo * 2
	}
	return geometric(lo, hi, k), nil
}

// Thetas returns k max-recreation bounds interpolated between the SPT max
// recreation (minimum attainable) and the minimum-storage tree's max
// recreation, the knob of the MP sweeps.
func Thetas(inst *Instance, k int) ([]float64, error) {
	mst, err := MinStorage(inst)
	if err != nil {
		return nil, err
	}
	spt, err := MinRecreation(inst)
	if err != nil {
		return nil, err
	}
	lo, hi := spt.MaxR, mst.MaxR
	if hi <= lo {
		hi = lo + 1
	}
	return geometric(lo, hi, k), nil
}

// SumThetas returns k Σ-recreation bounds interpolated between the SPT sum
// (minimum attainable) and the minimum-storage tree's sum, the knob of the
// Problem 5 sweeps.
func SumThetas(inst *Instance, k int) ([]float64, error) {
	mst, err := MinStorage(inst)
	if err != nil {
		return nil, err
	}
	spt, err := MinRecreation(inst)
	if err != nil {
		return nil, err
	}
	lo, hi := spt.SumR, mst.SumR
	if hi <= lo {
		hi = lo + 1
	}
	return geometric(lo, hi, k), nil
}

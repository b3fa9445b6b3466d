package solve

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"versiondb/internal/costs"
)

// scaleMatrix multiplies every cost entry by c.
func scaleMatrix(m *costs.Matrix, c float64) *costs.Matrix {
	out := costs.NewMatrix(m.N(), m.Directed())
	for i := 0; i < m.N(); i++ {
		if p, ok := m.Full(i); ok {
			out.SetFull(i, c*p.Storage, c*p.Recreate)
		}
	}
	m.EachDelta(func(i, j int, p costs.Pair) {
		out.SetDelta(i, j, c*p.Storage, c*p.Recreate)
	})
	return out
}

// permuteMatrix renames versions by a permutation.
func permuteMatrix(m *costs.Matrix, perm []int) *costs.Matrix {
	out := costs.NewMatrix(m.N(), m.Directed())
	for i := 0; i < m.N(); i++ {
		if p, ok := m.Full(i); ok {
			out.SetFull(perm[i], p.Storage, p.Recreate)
		}
	}
	m.EachDelta(func(i, j int, p costs.Pair) {
		out.SetDelta(perm[i], perm[j], p.Storage, p.Recreate)
	})
	return out
}

// TestQuickScaleInvariance: multiplying all costs by c multiplies every
// optimal objective by c (MST, SPT, exact), for both orientations.
func TestQuickScaleInvariance(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(t, seed, 10+rng.Intn(15), directed)
		c := 0.5 + rng.Float64()*4
		scaled, err := NewInstance(scaleMatrix(inst.M, c))
		if err != nil {
			return false
		}
		relEq := func(a, b float64) bool {
			return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
		}
		m1, err := MinStorage(inst)
		if err != nil {
			return false
		}
		m2, err := MinStorage(scaled)
		if err != nil {
			return false
		}
		if !relEq(c*m1.Storage, m2.Storage) {
			t.Logf("MST: %g·%g != %g", c, m1.Storage, m2.Storage)
			return false
		}
		s1, err := MinRecreation(inst)
		if err != nil {
			return false
		}
		s2, err := MinRecreation(scaled)
		if err != nil {
			return false
		}
		if !relEq(c*s1.SumR, s2.SumR) || !relEq(c*s1.MaxR, s2.MaxR) {
			t.Logf("SPT: scale mismatch")
			return false
		}
		// Exact with θ scaled accordingly.
		theta := s1.MaxR * 1.3
		e1, err1 := Solve(context.Background(), inst, Request{Solver: "exact", Theta: theta, MaxNodes: 500_000})
		e2, err2 := Solve(context.Background(), scaled, Request{Solver: "exact", Theta: c * theta, MaxNodes: 500_000})
		if (err1 == nil) != (err2 == nil) {
			t.Logf("exact feasibility diverged under scaling")
			return false
		}
		if err1 == nil && e1.Optimal && e2.Optimal && !relEq(c*e1.Solution.Storage, e2.Solution.Storage) {
			t.Logf("exact: %g·%g != %g", c, e1.Solution.Storage, e2.Solution.Storage)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickPermutationInvariance: renaming versions changes no optimal
// objective value.
func TestQuickPermutationInvariance(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(t, seed, 10+rng.Intn(15), directed)
		perm := rng.Perm(inst.M.N())
		permuted, err := NewInstance(permuteMatrix(inst.M, perm))
		if err != nil {
			return false
		}
		relEq := func(a, b float64) bool {
			return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
		}
		m1, err := MinStorage(inst)
		if err != nil {
			return false
		}
		m2, err := MinStorage(permuted)
		if err != nil {
			return false
		}
		if !relEq(m1.Storage, m2.Storage) {
			t.Logf("MST changed under renaming: %g vs %g", m1.Storage, m2.Storage)
			return false
		}
		s1, err := MinRecreation(inst)
		if err != nil {
			return false
		}
		s2, err := MinRecreation(permuted)
		if err != nil {
			return false
		}
		if !relEq(s1.SumR, s2.SumR) || !relEq(s1.MaxR, s2.MaxR) {
			t.Logf("SPT changed under renaming")
			return false
		}
		theta := s1.MaxR * 1.5
		e1, err1 := Solve(context.Background(), inst, Request{Solver: "exact", Theta: theta, MaxNodes: 500_000})
		e2, err2 := Solve(context.Background(), permuted, Request{Solver: "exact", Theta: theta, MaxNodes: 500_000})
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 == nil && e1.Optimal && e2.Optimal &&
			!relEq(e1.Solution.Storage, e2.Solution.Storage) {
			t.Logf("exact changed under renaming: %g vs %g", e1.Solution.Storage, e2.Solution.Storage)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickLMGBudgetEndpoints: at the MST budget LMG can only improve on
// the MST (swaps with non-positive storage delta are free); at the SPT
// budget it must land very close to the SPT's Σ-recreation optimum. Exact
// attainment is *not* a theorem — a swap sequence may need transient
// storage above the final SPT total, so a greedy pass can stop a hair
// short — hence the 5% allowance.
func TestQuickLMGBudgetEndpoints(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		inst := randomInstance(t, seed, 25, directed)
		mst, err := MinStorage(inst)
		if err != nil {
			return false
		}
		spt, err := MinRecreation(inst)
		if err != nil {
			return false
		}
		atMST, err := solveSol(inst, Request{Solver: "lmg", Budget: mst.Storage})
		if err != nil {
			return false
		}
		if atMST.Storage > mst.Storage+1e-9 || atMST.SumR > mst.SumR+1e-9 {
			t.Logf("LMG at MST budget regressed: storage %g vs %g, ΣR %g vs %g",
				atMST.Storage, mst.Storage, atMST.SumR, mst.SumR)
			return false
		}
		atSPT, err := solveSol(inst, Request{Solver: "lmg", Budget: spt.Storage})
		if err != nil {
			return false
		}
		if atSPT.SumR > spt.SumR*1.05 {
			t.Logf("LMG at SPT budget: ΣR %g far from optimum %g", atSPT.SumR, spt.SumR)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

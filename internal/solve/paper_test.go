package solve

import (
	"context"
	"math"
	"testing"

	"versiondb/internal/costs"
)

// paperMatrix builds the running example of the paper's Figures 1–3:
// versions V1..V5 (indices 0..4) with the Δ and Φ matrices of Figure 2.
func paperMatrix(t testing.TB) *costs.Matrix {
	t.Helper()
	m := costs.NewMatrix(5, true)
	// Diagonals ⟨Δii, Φii⟩.
	m.SetFull(0, 10000, 10000)
	m.SetFull(1, 10100, 10100)
	m.SetFull(2, 9700, 9700)
	m.SetFull(3, 9800, 9800)
	m.SetFull(4, 10120, 10120)
	// Off-diagonals ⟨Δij, Φij⟩ from Figure 2.
	m.SetDelta(0, 1, 200, 200)
	m.SetDelta(0, 2, 1000, 3000)
	m.SetDelta(1, 0, 500, 600)
	m.SetDelta(1, 3, 50, 400)
	m.SetDelta(1, 4, 800, 2500)
	m.SetDelta(2, 1, 1100, 3200)
	m.SetDelta(2, 4, 200, 550)
	m.SetDelta(3, 4, 900, 2500)
	m.SetDelta(4, 3, 800, 2300)
	return m
}

func paperInstance(t testing.TB) *Instance {
	t.Helper()
	inst, err := NewInstance(paperMatrix(t))
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

func TestPaperExampleMinStorage(t *testing.T) {
	inst := paperInstance(t)
	s, err := MinStorage(inst)
	if err != nil {
		t.Fatalf("MinStorage: %v", err)
	}
	// Figure 1(iii): V1 materialized, V2,V3 deltas from V1, V4 from V2,
	// V5 from V3 → total 10000+200+1000+50+200 = 11450.
	if s.Storage != 11450 {
		t.Errorf("MCA storage = %g, want 11450", s.Storage)
	}
	if err := s.Tree.Validate(); err != nil {
		t.Errorf("invalid tree: %v", err)
	}
	// The paper computes V5's recreation cost via V1→V3→V5 as 13550.
	r := s.Tree.RecreationCosts()
	if got := r[5]; got != 13550 {
		t.Errorf("recreation of V5 in MCA solution = %g, want 13550", got)
	}
}

func TestPaperExampleMinRecreation(t *testing.T) {
	inst := paperInstance(t)
	s, err := MinRecreation(inst)
	if err != nil {
		t.Fatalf("MinRecreation: %v", err)
	}
	// Every version's direct materialization is its shortest path, so the
	// SPT stores everything: storage = Σ sizes = 49720, and each Ri = Φii.
	if s.Storage != 49720 {
		t.Errorf("SPT storage = %g, want 49720", s.Storage)
	}
	if s.SumR != 49720 {
		t.Errorf("SPT ΣR = %g, want 49720", s.SumR)
	}
	want := []float64{0, 10000, 10100, 9700, 9800, 10120}
	for v, r := range s.Tree.RecreationCosts() {
		if r != want[v] {
			t.Errorf("R[%d] = %g, want %g", v, r, want[v])
		}
	}
}

func TestPaperExampleFigure4Solution(t *testing.T) {
	// Figure 4's storage graph (V1, V3 materialized) must be reproducible
	// as a valid solution with the costs the paper quotes.
	inst := paperInstance(t)
	s, err := solveSol(inst, Request{Solver: "lmg", Budget: 20150})
	if err != nil {
		t.Fatalf("LMG: %v", err)
	}
	if s.Storage > 20150 {
		t.Errorf("LMG storage %g exceeds budget 20150", s.Storage)
	}
	mca, _ := MinStorage(inst)
	if s.SumR > mca.SumR {
		t.Errorf("LMG ΣR %g worse than MCA ΣR %g despite extra budget", s.SumR, mca.SumR)
	}
}

func TestPaperExampleLMGBudgetSweep(t *testing.T) {
	inst := paperInstance(t)
	sols, err := SweepSolver(context.Background(), inst, "lmg", 6)
	if err != nil {
		t.Fatalf("SweepSolver(lmg): %v", err)
	}
	if len(sols) != 6 {
		t.Fatalf("SweepSolver(lmg): %d points, want 6", len(sols))
	}
	prev := math.Inf(1)
	for _, s := range sols {
		if s.Storage > s.Param+1e-9 {
			t.Errorf("budget %g violated: storage %g", s.Param, s.Storage)
		}
		if s.SumR > prev+1e-9 {
			t.Errorf("ΣR not non-increasing along budgets: %g after %g", s.SumR, prev)
		}
		if s.SumR < prev {
			prev = s.SumR
		}
	}
	// At the largest budget (SPT storage) LMG must reach the SPT optimum.
	spt, _ := MinRecreation(inst)
	last := sols[len(sols)-1]
	if last.SumR != spt.SumR {
		t.Errorf("LMG at full budget ΣR = %g, want SPT optimum %g", last.SumR, spt.SumR)
	}
}

func TestPaperExampleMP(t *testing.T) {
	inst := paperInstance(t)
	spt, _ := MinRecreation(inst)
	mca, _ := MinStorage(inst)
	for _, theta := range []float64{spt.MaxR, 10600, 12000, mca.MaxR} {
		s, err := solveSol(inst, Request{Solver: "mp", Theta: theta})
		if err != nil {
			t.Fatalf("MP(θ=%g): %v", theta, err)
		}
		if s.MaxR > theta {
			t.Errorf("MP(θ=%g) violated bound: maxR %g", theta, s.MaxR)
		}
		if s.Storage < mca.Storage {
			t.Errorf("MP storage %g below the minimum possible %g", s.Storage, mca.Storage)
		}
	}
	// Infeasible θ must error.
	if _, err := solveSol(inst, Request{Solver: "mp", Theta: spt.MaxR - 1}); err == nil {
		t.Errorf("MP with θ below SPT max recreation should fail")
	}
}

func TestPaperExampleExactMatchesOrBeatsMP(t *testing.T) {
	inst := paperInstance(t)
	for _, theta := range []float64{10120, 10600, 12000, 14000} {
		mp, err := solveSol(inst, Request{Solver: "mp", Theta: theta})
		if err != nil {
			t.Fatalf("MP(θ=%g): %v", theta, err)
		}
		ex, err := Solve(context.Background(), inst, Request{Solver: "exact", Theta: theta})
		if err != nil {
			t.Fatalf("Exact(θ=%g): %v", theta, err)
		}
		if !ex.Optimal {
			t.Fatalf("Exact(θ=%g) did not finish on a 5-version instance", theta)
		}
		if ex.Solution.Storage > mp.Storage+1e-9 {
			t.Errorf("Exact storage %g worse than MP %g at θ=%g", ex.Solution.Storage, mp.Storage, theta)
		}
		if ex.Solution.MaxR > theta+1e-9 {
			t.Errorf("Exact violated θ=%g: maxR=%g", theta, ex.Solution.MaxR)
		}
	}
}

func TestPaperExampleLAST(t *testing.T) {
	inst := paperInstance(t)
	for _, alpha := range []float64{1.1, 1.5, 2, 4} {
		s, err := solveSol(inst, Request{Solver: "last", Alpha: alpha})
		if err != nil {
			t.Fatalf("LAST(α=%g): %v", alpha, err)
		}
		if err := s.Tree.Validate(); err != nil {
			t.Errorf("LAST(α=%g) invalid tree: %v", alpha, err)
		}
	}
	if _, err := solveSol(inst, Request{Solver: "last", Alpha: 1.0}); err == nil {
		t.Errorf("LAST must reject α ≤ 1")
	}
}

func TestPaperExampleGitH(t *testing.T) {
	inst := paperInstance(t)
	s, err := solveSol(inst, Request{Solver: "gith", Window: 10, MaxDepth: 50})
	if err != nil {
		t.Fatalf("GitH: %v", err)
	}
	if err := s.Tree.Validate(); err != nil {
		t.Errorf("GitH invalid tree: %v", err)
	}
	mca, _ := MinStorage(inst)
	if s.Storage < mca.Storage {
		t.Errorf("GitH storage %g below minimum %g", s.Storage, mca.Storage)
	}
}

package solve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"versiondb/internal/costs"
	"versiondb/internal/graph"
	"versiondb/internal/workload"
)

// conformanceRequest builds a feasible Request for the solver on inst,
// deriving knob values from the MST/SPT envelope exactly as a caller with
// no problem-specific knowledge would.
func conformanceRequest(t *testing.T, inst *Instance, info Info) Request {
	t.Helper()
	mst, err := MinStorage(inst)
	if err != nil {
		t.Fatalf("MinStorage: %v", err)
	}
	spt, err := MinRecreation(inst)
	if err != nil {
		t.Fatalf("MinRecreation: %v", err)
	}
	req := Request{Solver: info.Name}
	switch info.Knob {
	case KnobBudget:
		req.Budget = mst.Storage * 1.3
	case KnobThetaMax:
		req.Theta = (spt.MaxR + mst.MaxR) / 2
		if req.Theta < spt.MaxR {
			req.Theta = spt.MaxR
		}
	case KnobThetaSum:
		req.Theta = (spt.SumR + mst.SumR) / 2
		if req.Theta < spt.SumR {
			req.Theta = spt.SumR
		}
	case KnobAlpha:
		req.Alpha = 2
	}
	if info.Name == "exact" {
		req.MaxNodes = 200_000 // bound test runtime; best-so-far still conforms
	}
	return req
}

// TestRegistryConformance runs every registered solver on the four
// evaluation presets and asserts, through feasible, that each result is a
// tree of the instance's own edges, reports the costs those edges give,
// and satisfies the constraint its Info declares on the recomputed costs.
func TestRegistryConformance(t *testing.T) {
	for _, preset := range workload.Presets {
		m, err := workload.Build(preset, 36, true, 1)
		if err != nil {
			t.Fatalf("Build %s: %v", preset, err)
		}
		inst, err := NewInstance(m)
		if err != nil {
			t.Fatalf("NewInstance %s: %v", preset, err)
		}
		for _, info := range Solvers() {
			t.Run(string(preset)+"/"+info.Name, func(t *testing.T) {
				req := conformanceRequest(t, inst, info)
				res, err := Solve(context.Background(), inst, req)
				if err != nil {
					t.Fatalf("Solve(%s): %v", info.Name, err)
				}
				if res.Solver != info.Name {
					t.Errorf("result solver = %q, want %q", res.Solver, info.Name)
				}
				if res.Solution == nil || res.Tree == nil {
					t.Fatalf("nil solution/tree")
				}
				bound := req.Theta
				if info.Constraint == ConstraintStorageLEBudget {
					bound = req.Budget
				}
				if err := feasible(inst, res.Solution, info.Constraint, bound); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// feasible executes Lemma 4 on a solver's output: a storage tree is a
// feasible assignment of the §2.3 ILP exactly when it spans the instance
// from the dummy root 0 and every tree edge is an edge of the augmented
// graph with the same (Δ, Φ) weights. It then recomputes storage, ΣΦ and
// maxΦ from those edges (Tree.RecreationCosts), requires the solution to
// report the same numbers, and checks constraint c at bound against the
// recomputed numbers, never the reported ones.
func feasible(inst *Instance, s *Solution, c Constraint, bound float64) error {
	t := s.Tree
	if t.N() != inst.G.N() || t.Root != 0 {
		return fmt.Errorf("tree spans %d vertices from root %d, instance has %d from root 0", t.N(), t.Root, inst.G.N())
	}
	if err := t.Validate(); err != nil {
		return err
	}
	var storage float64
	for v := 1; v < t.N(); v++ {
		e := t.EdgeTo(v)
		if !slices.Contains(inst.G.Out(e.From), e) {
			return fmt.Errorf("tree edge %d→%d (Δ %g, Φ %g) is not an edge of the instance", e.From, e.To, e.Storage, e.Recreate)
		}
		storage += e.Storage
	}
	var sumR, maxR float64
	for _, r := range t.RecreationCosts() {
		sumR += r
		maxR = max(maxR, r)
	}
	for _, x := range []struct {
		name                 string
		reported, recomputed float64
	}{{"storage", s.Storage, storage}, {"ΣΦ", s.SumR, sumR}, {"maxΦ", s.MaxR, maxR}} {
		if math.Abs(x.reported-x.recomputed) > 1e-9*max(1, x.recomputed) {
			return fmt.Errorf("reported %s %g, its tree gives %g", x.name, x.reported, x.recomputed)
		}
	}
	var name string
	var got float64
	switch c {
	case ConstraintStorageLEBudget:
		name, got = "storage", storage
	case ConstraintMaxRLETheta:
		name, got = "maxΦ", maxR
	case ConstraintSumRLETheta:
		name, got = "ΣΦ", sumR
	default:
		return nil
	}
	if got > bound*(1+1e-6) {
		return fmt.Errorf("%s %g exceeds the bound %g", name, got, bound)
	}
	return nil
}

// TestFeasibleAcceptsSolverResults runs the feasibility check on the
// Problem 6 solvers at θ = 12000 on the paper's Figure 2 instance.
func TestFeasibleAcceptsSolverResults(t *testing.T) {
	inst := paperInstance(t)
	for _, name := range []string{"mp", "exact"} {
		res, err := Solve(context.Background(), inst, Request{Solver: name, Theta: 12000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := feasible(inst, res.Solution, ConstraintMaxRLETheta, 12000); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestFeasibleRejectsViolations requires the feasibility check to accept the
// SPT at its own bound and to reject trees and reports that break Lemma 4.
func TestFeasibleRejectsViolations(t *testing.T) {
	inst := paperInstance(t)
	// θ = 10120 is the SPT's max recreation: the SPT fits, the MCA does not.
	spt, err := MinRecreation(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := feasible(inst, spt, ConstraintMaxRLETheta, 10120); err != nil {
		t.Errorf("SPT rejected at its own bound: %v", err)
	}
	mca, err := MinStorage(inst)
	if err != nil {
		t.Fatal(err)
	}
	evaluated := func(tr *graph.Tree) *Solution {
		s := &Solution{Tree: tr}
		s.Evaluate()
		return s
	}
	foreign := spt.Tree.Clone()
	foreign.SetEdge(graph.Edge{From: 5, To: 1, Storage: 1, Recreate: 1}) // V5→V1 is not revealed
	reweighted := spt.Tree.Clone()
	reweighted.SetEdge(graph.Edge{From: 0, To: 1, Storage: 1, Recreate: 10000})
	underreported := *spt
	underreported.MaxR--
	// Only the first case breaks the bound; the rest must fail on their
	// own with no constraint to check.
	for _, tc := range []struct {
		name string
		s    *Solution
		c    Constraint
	}{
		{"MCA over θ", mca, ConstraintMaxRLETheta},
		{"foreign edge", evaluated(foreign), ConstraintNone},
		{"edge with other weights", evaluated(reweighted), ConstraintNone},
		{"wrong-size tree", &Solution{Tree: graph.NewTree(3, 0)}, ConstraintNone},
		{"maxΦ reported below its tree's", &underreported, ConstraintNone},
	} {
		if err := feasible(inst, tc.s, tc.c, 10120); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestRegistryDeterministicTies solves one instance full of cost ties 30
// times per registered solver, rebuilding the augmented graph each time as
// every repository re-layout does, and requires a single storage tree:
// ties must break by version index, not by map iteration order.
func TestRegistryDeterministicTies(t *testing.T) {
	const n, hops, solves = 40, 3, 30
	m := costs.NewMatrix(n, true)
	for i := 0; i < n; i++ {
		m.SetFull(i, 100, 100)
		for j := i - hops; j <= i+hops; j++ {
			if j >= 0 && j < n && j != i {
				m.SetDelta(i, j, 10, 10)
			}
		}
		if i+1 < n {
			m.AddDeltaVariant(i, i+1, 10, 10)
		}
	}
	first, err := NewInstance(m)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	for _, info := range Solvers() {
		t.Run(info.Name, func(t *testing.T) {
			req := conformanceRequest(t, first, info)
			trees := map[string]bool{}
			for k := 0; k < solves; k++ {
				inst, err := NewInstance(m)
				if err != nil {
					t.Fatalf("NewInstance: %v", err)
				}
				res, err := Solve(context.Background(), inst, req)
				if err != nil {
					t.Fatalf("Solve: %v", err)
				}
				trees[fmt.Sprint(res.Tree.Parent)] = true
			}
			if len(trees) != 1 {
				t.Errorf("%d solves gave %d distinct trees, want 1", solves, len(trees))
			}
		})
	}
}

// TestRegistryRoster pins the registry contents: the nine solver names the
// API promises, each reachable through Solve.
func TestRegistryRoster(t *testing.T) {
	want := []string{"exact", "gith", "last", "lmg", "mp", "mst", "p4", "p5", "spt"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry has %v, want %v", got, want)
		}
	}
	for _, name := range want {
		if _, err := Describe(name); err != nil {
			t.Errorf("Describe(%q): %v", name, err)
		}
	}
}

// TestRegistryErrors asserts the normalized sentinels: unknown names,
// invalid knobs, infeasible bounds.
func TestRegistryErrors(t *testing.T) {
	inst := randomInstance(t, 3, 20, true)
	ctx := context.Background()
	if _, err := Solve(ctx, inst, Request{Solver: "simplex"}); !errors.Is(err, ErrUnknownSolver) {
		t.Errorf("unknown solver err = %v, want ErrUnknownSolver", err)
	}
	if _, err := Solve(ctx, inst, Request{Solver: "lmg"}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("lmg without budget err = %v, want ErrInvalidRequest", err)
	}
	if _, err := Solve(ctx, inst, Request{Solver: "last", Alpha: 0.5}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("last α=0.5 err = %v, want ErrInvalidRequest", err)
	}
	mst, err := MinStorage(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(ctx, inst, Request{Solver: "lmg", Budget: mst.Storage / 2}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("lmg below-min budget err = %v, want ErrInfeasible", err)
	}
	spt, err := MinRecreation(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(ctx, inst, Request{Solver: "mp", Theta: spt.MaxR / 2}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("mp below-min θ err = %v, want ErrInfeasible", err)
	}
	if _, err := Solve(ctx, inst, Request{Solver: "p5", Theta: spt.SumR / 2}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("p5 below-min θ err = %v, want ErrInfeasible", err)
	}

	// NaN fails every ordered comparison, so a bound check written as
	// "reject if ≤ 0" lets it through to a solver that then treats it as
	// no bound at all; non-finite or negative weights likewise.
	nan, inf := math.NaN(), math.Inf(1)
	weights := func(bad float64) []float64 {
		w := make([]float64, inst.M.N())
		for i := range w {
			w[i] = 1
		}
		w[len(w)/2] = bad
		return w
	}
	for _, req := range []Request{
		{Solver: "lmg", Budget: nan},
		{Solver: "p4", Budget: nan},
		{Solver: "p5", Theta: nan},
		{Solver: "mp", Theta: nan},
		{Solver: "exact", Theta: nan},
		{Solver: "last", Alpha: nan},
		{Solver: "lmg", Budget: mst.Storage * 2, Weights: weights(nan)},
		{Solver: "lmg", Budget: mst.Storage * 2, Weights: weights(inf)},
		{Solver: "lmg", Budget: mst.Storage * 2, Weights: weights(-inf)},
		{Solver: "lmg", Budget: mst.Storage * 2, Weights: weights(-1)},
	} {
		if _, err := Solve(ctx, inst, req); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s budget=%g θ=%g α=%g weights=%v: err = %v, want ErrInvalidRequest",
				req.Solver, req.Budget, req.Theta, req.Alpha, req.Weights, err)
		}
	}
	// +Inf stays a legal bound: "unbounded".
	for _, req := range []Request{
		{Solver: "lmg", Budget: inf},
		{Solver: "p4", Budget: inf},
		{Solver: "p5", Theta: inf},
		{Solver: "mp", Theta: inf},
		{Solver: "exact", Theta: inf, MaxNodes: 10_000},
	} {
		if _, err := Solve(ctx, inst, req); err != nil {
			t.Errorf("%s with +Inf bound: %v", req.Solver, err)
		}
	}
}

// TestRegistryCancellation aborts a large exact solve mid-search and
// requires a prompt ErrCanceled with no goroutine leak; it also checks the
// pre-canceled fast path on every solver.
func TestRegistryCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	// A dense 60-version instance keeps branch and bound busy far longer
	// than the test timeout; the node cap is lifted so only cancellation
	// can stop it early.
	inst := randomInstance(t, 7, 60, true)
	mst, err := MinStorage(inst)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Solve(ctx, inst, Request{Solver: "exact", Theta: mst.MaxR, MaxNodes: 1 << 62})
		done <- outcome{res, err}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case o := <-done:
		if !errors.Is(o.err, ErrCanceled) {
			// The search may legitimately finish inside 20ms on a fast
			// machine; accept a complete result, reject anything else.
			if o.err != nil || o.res == nil {
				t.Fatalf("canceled exact solve: res=%v err=%v, want ErrCanceled", o.res, o.err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("exact solve ignored cancellation for 10s")
	}

	// Pre-canceled contexts short-circuit every solver, including the
	// iterative lmg loop the acceptance criteria single out.
	canceledCtx, cancel2 := context.WithCancel(context.Background())
	cancel2()
	for _, info := range Solvers() {
		req := conformanceRequest(t, inst, info)
		if _, err := Solve(canceledCtx, inst, req); !errors.Is(err, ErrCanceled) {
			t.Errorf("%s with canceled ctx: err = %v, want ErrCanceled", info.Name, err)
		}
	}

	// Solvers run on the caller's goroutine; nothing should linger.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across canceled solves: %d -> %d", before, after)
	}
}

// TestRegistrySweeps drives the generic registry sweep over every solver,
// replacing the hand-listed per-algorithm sweep checks.
func TestRegistrySweeps(t *testing.T) {
	inst := randomInstance(t, 11, 30, true)
	for _, info := range Solvers() {
		if info.Name == "exact" {
			continue // covered by conformance; a full sweep is slow
		}
		res, err := SweepSolver(context.Background(), inst, info.Name, 3)
		if err != nil {
			t.Errorf("SweepSolver(%s): %v", info.Name, err)
			continue
		}
		if len(res) == 0 {
			t.Errorf("SweepSolver(%s): empty", info.Name)
		}
	}
	if _, err := SweepSolver(context.Background(), inst, "nope", 3); !errors.Is(err, ErrUnknownSolver) {
		t.Errorf("SweepSolver unknown err = %v", err)
	}
}

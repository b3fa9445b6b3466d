package solve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"versiondb/internal/costs"
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
// evaluation presets and asserts each result satisfies the constraint its
// Info declares, plus basic structural sanity.
func TestRegistryConformance(t *testing.T) {
	const tol = 1e-6
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
				if err := res.Tree.Validate(); err != nil {
					t.Errorf("invalid tree: %v", err)
				}
				switch info.Constraint {
				case ConstraintStorageLEBudget:
					if res.Storage > req.Budget*(1+tol) {
						t.Errorf("storage %g exceeds budget %g", res.Storage, req.Budget)
					}
				case ConstraintMaxRLETheta:
					if res.MaxR > req.Theta*(1+tol) {
						t.Errorf("maxR %g exceeds θ %g", res.MaxR, req.Theta)
					}
				case ConstraintSumRLETheta:
					if res.SumR > req.Theta*(1+tol) {
						t.Errorf("ΣR %g exceeds θ %g", res.SumR, req.Theta)
					}
				}
			})
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

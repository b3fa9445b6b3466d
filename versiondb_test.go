package versiondb_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"versiondb"
)

// TestPublicAPIEndToEnd drives the whole public facade: build a matrix and
// run every registered solver through Solve.
func TestPublicAPIEndToEnd(t *testing.T) {
	m := versiondb.NewMatrix(4, true)
	m.SetFull(0, 1000, 1000)
	m.SetFull(1, 1010, 1010)
	m.SetFull(2, 1020, 1020)
	m.SetFull(3, 1030, 1030)
	m.SetDelta(0, 1, 25, 25)
	m.SetDelta(1, 2, 30, 30)
	m.SetDelta(2, 3, 35, 35)
	m.SetDelta(0, 3, 90, 90)

	inst, err := versiondb.NewInstance(m)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	ctx := context.Background()
	solve := func(req versiondb.Request) *versiondb.Result {
		t.Helper()
		res, err := versiondb.Solve(ctx, inst, req)
		if err != nil {
			t.Fatalf("Solve(%s): %v", req.Solver, err)
		}
		return res
	}
	mst := solve(versiondb.Request{Solver: "mst"})
	if mst.Storage != 1000+25+30+35 {
		t.Errorf("MST storage = %g, want 1090", mst.Storage)
	}
	spt := solve(versiondb.Request{Solver: "spt"})
	if spt.SumR != 1000+1010+1020+1030 {
		t.Errorf("SPT ΣR = %g", spt.SumR)
	}
	solve(versiondb.Request{Solver: "lmg", Budget: 2 * mst.Storage})
	solve(versiondb.Request{Solver: "mp", Theta: spt.MaxR * 1.2})
	solve(versiondb.Request{Solver: "last", Alpha: 2})
	solve(versiondb.Request{Solver: "gith", Window: 4, MaxDepth: 10})
	solve(versiondb.Request{Solver: "p4", Budget: mst.Storage * 2})
	solve(versiondb.Request{Solver: "p5", Theta: spt.SumR * 1.5})
	if ex := solve(versiondb.Request{Solver: "exact", Theta: spt.MaxR * 1.2}); !ex.Optimal {
		t.Errorf("tiny exact instance not solved to optimality")
	}
	if bs, err := versiondb.Budgets(inst, 3); err != nil || len(bs) != 3 {
		t.Errorf("Budgets: %v %v", bs, err)
	}
	if ts, err := versiondb.Thetas(inst, 3); err != nil || len(ts) != 3 {
		t.Errorf("Thetas: %v %v", ts, err)
	}
}

// ExampleSolve is the package documentation's session: three versions, each
// a small delta from the last, solved for minimum Σ recreation under a
// 1100-byte storage budget. Materializing a second version would cost ~1000
// more bytes, so LMG keeps the minimum-storage chain V0 → V1 → V2.
func ExampleSolve() {
	m := versiondb.NewMatrix(3, true)
	m.SetFull(0, 1000, 1000)
	m.SetFull(1, 1010, 1010)
	m.SetFull(2, 1020, 1020)
	m.SetDelta(0, 1, 25, 25)
	m.SetDelta(1, 2, 30, 30)
	inst, err := versiondb.NewInstance(m)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := versiondb.Solve(context.Background(), inst, versiondb.Request{Solver: "lmg", Budget: 1100})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("storage %g, Σ recreation %g\n", res.Storage, res.SumR)
	// Output:
	// storage 1055, Σ recreation 3080
}

// TestPublicSolveAPI drives the unified request/result path through the
// facade: every registered solver by name, the normalized sentinels, and
// cancellation.
func TestPublicSolveAPI(t *testing.T) {
	m, err := versiondb.BuildWorkload(versiondb.LC, 30, true, 1)
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	inst, err := versiondb.NewInstance(m)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	ctx := context.Background()
	mst, err := versiondb.Solve(ctx, inst, versiondb.Request{Solver: "mst"})
	if err != nil {
		t.Fatalf("Solve(mst): %v", err)
	}
	spt, err := versiondb.Solve(ctx, inst, versiondb.Request{Solver: "spt"})
	if err != nil {
		t.Fatalf("Solve(spt): %v", err)
	}
	if !mst.Optimal || !spt.Optimal {
		t.Errorf("mst/spt not marked optimal")
	}
	infos := versiondb.Solvers()
	if len(infos) != 9 || len(versiondb.SolverNames()) != 9 {
		t.Fatalf("registry has %d solvers, want 9", len(infos))
	}
	for _, info := range infos {
		req := versiondb.Request{Solver: info.Name, Budget: mst.Storage * 1.5,
			Theta: mst.SumR, Alpha: 2, MaxNodes: 100_000}
		if info.Name == "mp" || info.Name == "exact" {
			req.Theta = mst.MaxR
		}
		res, err := versiondb.Solve(ctx, inst, req)
		if err != nil {
			t.Errorf("Solve(%s): %v", info.Name, err)
			continue
		}
		if res.Solver != info.Name || res.Tree == nil {
			t.Errorf("Solve(%s) returned %+v", info.Name, res)
		}
	}
	if _, err := versiondb.Solve(ctx, inst, versiondb.Request{Solver: "nope"}); !errors.Is(err, versiondb.ErrUnknownSolver) {
		t.Errorf("unknown solver err = %v", err)
	}
	if _, err := versiondb.Solve(ctx, inst, versiondb.Request{Solver: "lmg"}); !errors.Is(err, versiondb.ErrInvalidRequest) {
		t.Errorf("missing budget err = %v", err)
	}
	if _, err := versiondb.Solve(ctx, inst, versiondb.Request{Solver: "mp", Theta: spt.MaxR / 2}); !errors.Is(err, versiondb.ErrInfeasible) {
		t.Errorf("infeasible θ err = %v", err)
	}
	canceledCtx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := versiondb.Solve(canceledCtx, inst, versiondb.Request{Solver: "lmg", Budget: mst.Storage * 2}); !errors.Is(err, versiondb.ErrCanceled) {
		t.Errorf("canceled ctx err = %v", err)
	}
}

func TestPublicAPIWorkloadsAndRepo(t *testing.T) {
	for _, p := range []versiondb.Preset{versiondb.DC, versiondb.LC, versiondb.BF, versiondb.LF} {
		m, err := versiondb.BuildWorkload(p, 40, true, 1)
		if err != nil {
			t.Fatalf("BuildWorkload(%s): %v", p, err)
		}
		if m.N() != 40 {
			t.Errorf("%s: N = %d", p, m.N())
		}
	}
	if f := versiondb.Zipf(10, 2, 1); len(f) != 10 {
		t.Errorf("Zipf length %d", len(f))
	}

	dir := t.TempDir()
	r, err := versiondb.InitRepo(dir)
	if err != nil {
		t.Fatalf("InitRepo: %v", err)
	}
	payload := []byte("a,b\n1,2\n3,4\n")
	if _, err := r.Commit("master", payload, "root"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	v2 := []byte("a,b\n1,2\n3,5\n9,9\n")
	if _, err := r.Commit("master", v2, "edit"); err != nil {
		t.Fatalf("Commit 2: %v", err)
	}
	if _, err := r.Optimize(context.Background(), versiondb.OptimizeOptions{
		Request:      versiondb.Request{Solver: "lmg"},
		BudgetFactor: 1.5,
		RevealHops:   3,
	}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	r2, err := versiondb.OpenRepo(dir)
	if err != nil {
		t.Fatalf("OpenRepo: %v", err)
	}
	got, err := r2.Checkout(1)
	if err != nil || !bytes.Equal(got, v2) {
		t.Errorf("Checkout after reopen: %q %v", got, err)
	}
}

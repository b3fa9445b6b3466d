package solve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"versiondb/internal/costs"
	"versiondb/internal/graph"
	"versiondb/internal/workload"
)

// solveSol runs req through the registry and returns the bare solution
// the property tests inspect.
func solveSol(inst *Instance, req Request) (*Solution, error) {
	res, err := Solve(context.Background(), inst, req)
	if err != nil {
		return nil, err
	}
	return res.Solution, nil
}

// randomInstance builds a random solver instance from the workload
// generator (small, directed or undirected, proportional costs).
func randomInstance(t testing.TB, seed int64, n int, directed bool) *Instance {
	t.Helper()
	vg, err := workload.Generate(workload.GraphParams{
		Commits:        n,
		BranchInterval: 2,
		BranchProb:     0.7,
		BranchLimit:    3,
		BranchLength:   3,
		MergeProb:      0.3,
		Seed:           seed,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	m, err := vg.SynthCosts(workload.CostParams{
		BaseSize:    50e3,
		SizeDrift:   0.03,
		EditFrac:    0.05,
		EditFracVar: 0.5,
		RevealHops:  4,
		Directed:    directed,
		ReverseAsym: 1.3,
		Seed:        seed + 1,
	})
	if err != nil {
		t.Fatalf("SynthCosts: %v", err)
	}
	inst, err := NewInstance(m)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

func TestQuickLMGInvariants(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(t, seed, 20+rng.Intn(40), directed)
		mst, err := MinStorage(inst)
		if err != nil {
			return false
		}
		spt, err := MinRecreation(inst)
		if err != nil {
			return false
		}
		budgets, err := Budgets(inst, 5)
		if err != nil {
			return false
		}
		prevSumR := math.Inf(1)
		for _, b := range budgets {
			s, err := solveSol(inst, Request{Solver: "lmg", Budget: b})
			if err != nil {
				t.Logf("LMG(%g): %v", b, err)
				return false
			}
			if s.Tree.Validate() != nil {
				return false
			}
			if s.Storage > b+1e-6 {
				t.Logf("budget %g violated: %g", b, s.Storage)
				return false
			}
			if s.SumR < spt.SumR-1e-6 {
				t.Logf("ΣR %g below SPT optimum %g", s.SumR, spt.SumR)
				return false
			}
			if s.SumR > mst.SumR+1e-6 {
				t.Logf("ΣR %g worse than the MST start %g", s.SumR, mst.SumR)
				return false
			}
			if s.SumR > prevSumR+1e-6 {
				t.Logf("ΣR not monotone along budgets")
				return false
			}
			prevSumR = s.SumR
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLMGBudgetBelowMSTFails(t *testing.T) {
	inst := randomInstance(t, 7, 20, true)
	mst, _ := MinStorage(inst)
	if _, err := solveSol(inst, Request{Solver: "lmg", Budget: mst.Storage * 0.9}); err == nil {
		t.Errorf("LMG accepted an infeasible budget")
	}
}

func TestLMGFreqValidation(t *testing.T) {
	inst := randomInstance(t, 8, 15, true)
	mst, _ := MinStorage(inst)
	if _, err := solveSol(inst, Request{Solver: "lmg", Budget: mst.Storage * 2, Weights: []float64{1, 2}}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("LMG accepted a wrong-length frequency vector: %v", err)
	}
	bad := make([]float64, inst.M.N())
	bad[0] = -1
	if _, err := solveSol(inst, Request{Solver: "lmg", Budget: mst.Storage * 2, Weights: bad}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("LMG accepted negative frequencies: %v", err)
	}
}

func TestQuickLMGWorkloadAwareHelpsOnWeightedCost(t *testing.T) {
	f := func(seed int64) bool {
		inst := randomInstance(t, seed, 40, true)
		n := inst.M.N()
		freq := workload.Zipf(n, 2, seed)
		budgets, err := Budgets(inst, 4)
		if err != nil {
			return false
		}
		w := make([]float64, n+1)
		copy(w[1:], freq)
		for _, b := range budgets[1:] {
			plain, err := solveSol(inst, Request{Solver: "lmg", Budget: b})
			if err != nil {
				return false
			}
			aware, err := solveSol(inst, Request{Solver: "lmg", Budget: b, Weights: freq})
			if err != nil {
				return false
			}
			if aware.Storage > b+1e-6 {
				return false
			}
			pw := plain.Tree.WeightedSumRecreation(w)
			aw := aware.Tree.WeightedSumRecreation(w)
			// Greedy, so not a theorem — but the aware variant should not
			// lose badly on the metric it optimizes.
			if aw > pw*1.02+1e-6 {
				t.Logf("aware %g notably worse than plain %g at budget %g", aw, pw, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestLMGNaiveSubtreeAgrees(t *testing.T) {
	inst := randomInstance(t, 9, 30, true)
	budgets, _ := Budgets(inst, 4)
	for _, b := range budgets {
		fast, err := solveSol(inst, Request{Solver: "lmg", Budget: b})
		if err != nil {
			t.Fatalf("fast: %v", err)
		}
		naive, err := lmgRun(context.Background(), inst, lmgOptions{Budget: b, NaiveSubtree: true})
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		if fast.Storage != naive.Storage || fast.SumR != naive.SumR {
			t.Errorf("naive/fast subtree maintenance disagree at budget %g: (%g,%g) vs (%g,%g)",
				b, fast.Storage, fast.SumR, naive.Storage, naive.SumR)
		}
	}
}

func TestQuickMPInvariants(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(t, seed, 20+rng.Intn(40), directed)
		mst, err := MinStorage(inst)
		if err != nil {
			return false
		}
		thetas, err := Thetas(inst, 5)
		if err != nil {
			return false
		}
		for _, th := range thetas {
			s, err := solveSol(inst, Request{Solver: "mp", Theta: th})
			if err != nil {
				t.Logf("MP(%g): %v", th, err)
				return false
			}
			if s.Tree.Validate() != nil {
				return false
			}
			if s.MaxR > th+1e-6 {
				t.Logf("θ %g violated: %g", th, s.MaxR)
				return false
			}
			if s.Storage < mst.Storage-1e-6 {
				t.Logf("storage %g below minimum %g", s.Storage, mst.Storage)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickLASTUndirectedGuarantees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(t, seed, 20+rng.Intn(30), false)
		mst, err := MinStorage(inst)
		if err != nil {
			return false
		}
		_, sp, err := graph.SPT(inst.G, Root, graph.ByRecreate)
		if err != nil {
			return false
		}
		for _, alpha := range []float64{1.5, 2, 4} {
			s, err := solveSol(inst, Request{Solver: "last", Alpha: alpha})
			if err != nil {
				t.Logf("LAST(%g): %v", alpha, err)
				return false
			}
			if s.Tree.Validate() != nil {
				return false
			}
			// Guarantee 1: every root path within α of the shortest path.
			r := s.Tree.RecreationCosts()
			for v := 1; v < inst.G.N(); v++ {
				if r[v] > alpha*sp[v]+1e-6 {
					t.Logf("α=%g: R[%d]=%g > α·SP=%g", alpha, v, r[v], alpha*sp[v])
					return false
				}
			}
			// Guarantee 2: total weight within (1 + 2/(α−1)) of the MST.
			// (Weight here is the Φ weight the traversal optimizes; in the
			// undirected Φ=Δ regime storage equals it.)
			bound := (1 + 2/(alpha-1)) * mst.Storage
			if s.Storage > bound+1e-6 {
				t.Logf("α=%g: storage %g > bound %g", alpha, s.Storage, bound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLASTHintedSPTMatchesDijkstra: with an SPT hint, lastRun sums Φ
// root-down over the hinted tree instead of re-running Dijkstra. Those
// sums must equal graph.SPT's distances bit for bit, on random directed
// instances and on the vbench -scale test datasets, so every "last" sweep
// point (the sweep hints the SPT) returns exactly the unhinted tree.
func TestLASTHintedSPTMatchesDijkstra(t *testing.T) {
	type named struct {
		name string
		inst *Instance
	}
	var cases []named
	for seed := int64(1); seed <= 12; seed++ {
		cases = append(cases, named{fmt.Sprintf("random/%d", seed), randomInstance(t, seed, 15+5*int(seed), true)})
	}
	// bench.TestScale's dataset sizes and seed.
	sizes := map[workload.Preset]int{workload.DC: 120, workload.LC: 120, workload.BF: 60, workload.LF: 40}
	for _, p := range workload.Presets {
		for _, directed := range []bool{true, false} {
			m, err := workload.Build(p, sizes[p], directed, 1)
			if err != nil {
				t.Fatalf("Build %s: %v", p, err)
			}
			inst, err := NewInstance(m)
			if err != nil {
				t.Fatalf("NewInstance %s: %v", p, err)
			}
			cases = append(cases, named{fmt.Sprintf("%s/directed=%v", p, directed), inst})
		}
	}
	ctx := context.Background()
	for _, c := range cases {
		_, want, err := graph.SPT(c.inst.G, Root, graph.ByRecreate)
		if err != nil {
			t.Fatalf("%s: SPT: %v", c.name, err)
		}
		spt, err := MinRecreation(c.inst)
		if err != nil {
			t.Fatalf("%s: MinRecreation: %v", c.name, err)
		}
		for v, d := range spt.Tree.RecreationCosts() {
			if math.Float64bits(d) != math.Float64bits(want[v]) {
				t.Fatalf("%s: vertex %d: root-down sum %v, Dijkstra %v", c.name, v, d, want[v])
			}
		}
		mst, err := MinStorage(c.inst)
		if err != nil {
			t.Fatalf("%s: MinStorage: %v", c.name, err)
		}
		reqs, err := SweepRequests(c.inst, "last", 4)
		if err != nil {
			t.Fatalf("%s: SweepRequests: %v", c.name, err)
		}
		swept, err := SweepSolver(ctx, c.inst, "last", 4)
		if err != nil {
			t.Fatalf("%s: SweepSolver: %v", c.name, err)
		}
		if len(swept) != len(reqs) {
			t.Fatalf("%s: sweep returned %d points, want %d", c.name, len(swept), len(reqs))
		}
		for i, req := range reqs {
			req.Hints = &Hints{MST: mst}
			plain, err := Solve(ctx, c.inst, req)
			if err != nil {
				t.Fatalf("%s: last α=%g: %v", c.name, req.Alpha, err)
			}
			got := swept[i]
			if !slices.Equal(got.Tree.Parent, plain.Tree.Parent) || got.Storage != plain.Storage ||
				got.SumR != plain.SumR || got.MaxR != plain.MaxR {
				t.Fatalf("%s: last α=%g: SPT-hinted sweep point differs from the unhinted solve", c.name, req.Alpha)
			}
		}
	}
}

func TestQuickGitHDepthBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(t, seed, 20+rng.Intn(40), true)
		for _, cfg := range []Request{
			{Solver: "gith", Window: 5, MaxDepth: 3},
			{Solver: "gith", Window: 10, MaxDepth: 10},
			{Solver: "gith", Window: 1, MaxDepth: 1},
		} {
			s, err := solveSol(inst, cfg)
			if err != nil {
				t.Logf("GitH(%+v): %v", cfg, err)
				return false
			}
			if s.Tree.Validate() != nil {
				return false
			}
			for v, d := range s.Tree.Depths() {
				// Depth in the augmented tree = delta-chain length + 1.
				if v != Root && d-1 > cfg.MaxDepth {
					t.Logf("GitH(%+v): vertex %d at chain depth %d", cfg, v, d-1)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGitHValidation(t *testing.T) {
	inst := randomInstance(t, 10, 10, true)
	if _, err := solveSol(inst, Request{Solver: "gith", Window: -1, MaxDepth: 5}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("negative window: err = %v, want ErrInvalidRequest", err)
	}
	if _, err := solveSol(inst, Request{Solver: "gith", Window: 5, MaxDepth: -1}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("negative depth: err = %v, want ErrInvalidRequest", err)
	}
}

func TestGitHDepthBiasAblation(t *testing.T) {
	inst := randomInstance(t, 11, 60, true)
	with, err := solveSol(inst, Request{Solver: "gith", Window: 10, MaxDepth: 5})
	if err != nil {
		t.Fatalf("with bias: %v", err)
	}
	without, err := githRun(context.Background(), inst, githOptions{Window: 10, MaxDepth: 5, NoDepthBias: true})
	if err != nil {
		t.Fatalf("without bias: %v", err)
	}
	// The bias prefers shallower chains: the max recreation cost with bias
	// should not be worse. (Holds on these workloads; it is the bias's
	// entire purpose per the Appendix A analysis.)
	if with.MaxR > without.MaxR*1.25+1e-6 {
		t.Errorf("depth bias made chains worse: maxR %g vs %g", with.MaxR, without.MaxR)
	}
}

// bruteExact enumerates every parent function over ≤ 6 versions.
func bruteExact(inst *Instance, theta float64) float64 {
	g := inst.G
	n := g.N()
	in := make([][]graph.Edge, n)
	for v := 0; v < n; v++ {
		for _, e := range g.Out(v) {
			if e.To != Root {
				in[e.To] = append(in[e.To], e)
			}
		}
	}
	best := math.Inf(1)
	edges := make([]graph.Edge, n)
	var rec func(v int, cost float64)
	rec = func(v int, cost float64) {
		if cost >= best {
			return
		}
		if v == n {
			t := graph.NewTree(n, Root)
			for u := 1; u < n; u++ {
				t.SetEdge(edges[u])
			}
			if t.Validate() != nil {
				return
			}
			if t.MaxRecreation() <= theta+1e-9 {
				best = cost
			}
			return
		}
		for _, e := range in[v] {
			edges[v] = e
			rec(v+1, cost+e.Storage)
		}
	}
	rec(1, 0)
	return best
}

func TestQuickExactMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(t, seed, 4+rng.Intn(3), true) // ≤ 6 versions
		thetas, err := Thetas(inst, 3)
		if err != nil {
			return false
		}
		for _, th := range thetas {
			want := bruteExact(inst, th)
			ex, err := Solve(context.Background(), inst, Request{Solver: "exact", Theta: th})
			if math.IsInf(want, 1) {
				if err == nil {
					t.Logf("exact found a solution where brute force found none (θ=%g)", th)
					return false
				}
				continue
			}
			if err != nil {
				t.Logf("exact failed where brute force succeeded (θ=%g): %v", th, err)
				return false
			}
			if !ex.Optimal {
				return false
			}
			if math.Abs(ex.Solution.Storage-want) > 1e-6 {
				t.Logf("exact %g, brute force %g (θ=%g)", ex.Solution.Storage, want, th)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickExactLowerBoundsHeuristics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(t, seed, 8+rng.Intn(6), true)
		thetas, err := Thetas(inst, 3)
		if err != nil {
			return false
		}
		for _, th := range thetas {
			ex, err := Solve(context.Background(), inst, Request{Solver: "exact", Theta: th, MaxNodes: 3_000_000})
			if err != nil || !ex.Optimal {
				continue
			}
			mp, err := solveSol(inst, Request{Solver: "mp", Theta: th})
			if err == nil && mp.Storage < ex.Solution.Storage-1e-6 {
				t.Logf("MP %g beat exact optimum %g at θ=%g", mp.Storage, ex.Solution.Storage, th)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestExactInfeasibleTheta(t *testing.T) {
	inst := randomInstance(t, 12, 8, true)
	spt, _ := MinRecreation(inst)
	if _, err := Solve(context.Background(), inst, Request{Solver: "exact", Theta: spt.MaxR / 2}); err == nil {
		t.Errorf("exact accepted infeasible θ")
	}
}

func TestProblem4RespectsBudget(t *testing.T) {
	inst := randomInstance(t, 13, 30, true)
	mst, _ := MinStorage(inst)
	for _, factor := range []float64{1.05, 1.5, 3} {
		beta := mst.Storage * factor
		s, err := solveSol(inst, Request{Solver: "p4", Budget: beta, Iters: 20})
		if err != nil {
			t.Fatalf("Problem4(%g): %v", beta, err)
		}
		if s.Storage > beta+1e-6 {
			t.Errorf("Problem4 budget %g violated: %g", beta, s.Storage)
		}
		if s.MaxR > mst.MaxR+1e-6 {
			t.Errorf("Problem4 worse than MST on maxR")
		}
	}
	if _, err := solveSol(inst, Request{Solver: "p4", Budget: mst.Storage * 0.5, Iters: 10}); err == nil {
		t.Errorf("Problem4 accepted infeasible budget")
	}
}

func TestProblem5RespectsTheta(t *testing.T) {
	inst := randomInstance(t, 14, 30, true)
	mst, _ := MinStorage(inst)
	spt, _ := MinRecreation(inst)
	for _, factor := range []float64{1.001, 1.5, 3} {
		theta := spt.SumR * factor
		s, err := solveSol(inst, Request{Solver: "p5", Theta: theta, Iters: 30})
		if err != nil {
			t.Fatalf("Problem5(%g): %v", theta, err)
		}
		if s.SumR > theta+1e-6 {
			t.Errorf("Problem5 θ %g violated: ΣR %g", theta, s.SumR)
		}
		if s.Storage < mst.Storage-1e-6 {
			t.Errorf("Problem5 storage below minimum")
		}
	}
	if _, err := solveSol(inst, Request{Solver: "p5", Theta: spt.SumR * 0.5, Iters: 10}); err == nil {
		t.Errorf("Problem5 accepted infeasible θ")
	}
	// A θ the MST already satisfies returns the MST.
	s, err := solveSol(inst, Request{Solver: "p5", Theta: mst.SumR * 2, Iters: 10})
	if err != nil {
		t.Fatalf("Problem5 loose: %v", err)
	}
	if s.Storage > mst.Storage+1e-6 {
		t.Errorf("loose Problem5 did not return the MST")
	}
}

func TestSweepsProduceSolutions(t *testing.T) {
	inst := randomInstance(t, 15, 25, true)
	budgets, err := Budgets(inst, 4)
	if err != nil || len(budgets) != 4 {
		t.Fatalf("Budgets: %v", err)
	}
	thetas, err := Thetas(inst, 4)
	if err != nil || len(thetas) != 4 {
		t.Fatalf("Thetas: %v", err)
	}
	for _, c := range []struct {
		solver string
		k, min int
	}{{"lmg", 4, 4}, {"mp", 4, 1}, {"last", 2, 2}, {"gith", 1, 1}} {
		if res, err := SweepSolver(context.Background(), inst, c.solver, c.k); err != nil || len(res) < c.min {
			t.Errorf("SweepSolver(%s): %d, %v", c.solver, len(res), err)
		}
	}
}

func TestScenarioDetection(t *testing.T) {
	// Undirected Φ=Δ instance is proportional with constant 1.
	inst := randomInstance(t, 16, 15, false)
	c, ok := inst.M.Proportional(1e-9)
	if !ok || c != 1 {
		t.Errorf("Φ=Δ instance: Proportional = %g,%v", c, ok)
	}
	if inst.M.Directed() {
		t.Errorf("undirected instance reports directed")
	}
	if s := costs.UndirectedProportional.String(); s == "" {
		t.Errorf("scenario string empty")
	}
}

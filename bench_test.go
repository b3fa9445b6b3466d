// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5) at bench scale, plus ablation benchmarks for design choices (the LMG
// subtree and GitH depth-bias ablations exercise unexported knobs and live
// in internal/solve). Run:
//
//	go test -bench=. -benchmem
//
// Full-scale experiment output (the paper-shaped tables) comes from
// cmd/vbench; these benchmarks time the same code paths at a size that
// keeps -bench runs minutes, not hours, and report domain metrics
// (storage ratios, recreation ratios) via b.ReportMetric.
package versiondb_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"versiondb/internal/bench"
	"versiondb/internal/delta"
	"versiondb/internal/repo"
	"versiondb/internal/solve"
	"versiondb/internal/store"
	"versiondb/internal/workload"
)

// benchScale keeps one bench iteration well under a second.
func benchScale() bench.Scale {
	return bench.Scale{DC: 150, LC: 150, BF: 80, LF: 50, SweepPoints: 4, Seed: 1}
}

func BenchmarkFig12DatasetProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig12(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Report the paper's headline ratio on DC: MCA Σ-recreation vs
			// the SPT minimum.
			b.ReportMetric(rows[0].MCASumR/rows[0].SPTSumR, "DC-MCA/SPT-sumR")
		}
	}
}

func BenchmarkFig13DirectedSumRecreation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig13(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			sub := fig.Subplots[0] // DC
			lmg := sub.Curves[0].Points
			b.ReportMetric(lmg[0].SumR/lmg[len(lmg)-1].SumR, "DC-LMG-sumR-drop")
		}
	}
}

func BenchmarkFig14DirectedMaxRecreation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig14(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15Undirected(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig15(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16WorkloadAware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig16(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			gaps, err := bench.Fig16Gap(fig)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(gaps["DC"], "DC-plain/aware")
		}
	}
}

func BenchmarkFig17LMGRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig17(benchScale(), []int{40, 80}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2ExactVsMP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2([]int{15}, 3, 1, 2_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 0 {
			b.ReportMetric(rows[len(rows)-1].MPStorage/rows[len(rows)-1].ExactStorage, "MP/exact")
		}
	}
}

func BenchmarkSec52Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Sec52(25, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var svn, mca float64
			for _, r := range rows {
				switch r.System {
				case "SVN (skip-deltas)":
					svn = r.StoredBytes
				case "MCA":
					mca = r.StoredBytes
				}
			}
			b.ReportMetric(svn/mca, "SVN/MCA")
		}
	}
}

// --- Serving path: checkout cache ------------------------------------------

// chainRepo commits n versions in a line onto an in-memory backend, so the
// deepest version sits behind an (n-1)-delta chain.
func chainRepo(b *testing.B, n int) *repo.Repo {
	b.Helper()
	r, err := repo.InitBackend(store.NewMemStore())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	lines := make([]string, 60)
	for i := range lines {
		lines[i] = fmt.Sprintf("row-%d,%d,%d", i, rng.Intn(1000), rng.Intn(1000))
	}
	for v := 0; v < n; v++ {
		if v > 0 {
			for k := 0; k < 3; k++ {
				lines[rng.Intn(len(lines))] = fmt.Sprintf("edit-%d-%d,%d", v, k, rng.Intn(1000))
			}
		}
		var buf bytes.Buffer
		for _, l := range lines {
			buf.WriteString(l)
			buf.WriteByte('\n')
		}
		if _, err := r.Commit(repo.DefaultBranch, buf.Bytes(), "v"); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkCheckoutHotVsCold shows the LRU cache removing delta-chain
// replay on repeat checkouts: cold pays the full chain in delta
// applications every iteration, hot pays it once and then serves from the
// cache (deltas/op → 0).
func BenchmarkCheckoutHotVsCold(b *testing.B) {
	const versions = 24
	for _, tc := range []struct {
		name  string
		cache int
	}{
		{"cold", 0},
		{"hot", 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r := chainRepo(b, versions)
			r.EnableCache(tc.cache)
			start := r.DeltaApplications()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Checkout(versions - 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			applied := r.DeltaApplications() - start
			recordServing(b, map[string]float64{"deltas/op": float64(applied) / float64(b.N)})
			if tc.cache > 0 && applied > versions-1 {
				b.Fatalf("hot path applied %d deltas across %d checkouts; cache not effective", applied, b.N)
			}
		})
	}
}

// --- Core-solver microbenchmarks on the DC workload -------------------------

func dcInstance(b *testing.B, n int, directed bool) *solve.Instance {
	b.Helper()
	m, err := workload.Build(workload.DC, n, directed, 1)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := solve.NewInstance(m)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

func BenchmarkMCADirected500(b *testing.B) {
	inst := dcInstance(b, 500, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve.MinStorage(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPTDirected500(b *testing.B) {
	inst := dcInstance(b, 500, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve.MinRecreation(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLMG500(b *testing.B) {
	inst := dcInstance(b, 500, true)
	mst, err := solve.MinStorage(inst)
	if err != nil {
		b.Fatal(err)
	}
	spt, err := solve.MinRecreation(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := solve.Request{Solver: "lmg", Budget: 3 * mst.Storage, Hints: &solve.Hints{MST: mst, SPT: spt}}
		if _, err := solve.Solve(context.Background(), inst, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMP500(b *testing.B) {
	inst := dcInstance(b, 500, true)
	mst, err := solve.MinStorage(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve.Solve(context.Background(), inst, solve.Request{Solver: "mp", Theta: mst.MaxR}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLAST500(b *testing.B) {
	inst := dcInstance(b, 500, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve.Solve(context.Background(), inst, solve.Request{Solver: "last", Alpha: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGitH500(b *testing.B) {
	inst := dcInstance(b, 500, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve.Solve(context.Background(), inst, solve.Request{Solver: "gith", Window: 10, MaxDepth: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverRegistry sweeps every registered solver through the
// unified Solve API on a mid-size LC workload, so the perf trajectory
// captures per-solver cost uniformly (and catches regressions introduced by
// registry dispatch itself). The exact solver runs under a node cap — the
// point is dispatch + search cost at fixed work, not optimality.
func BenchmarkSolverRegistry(b *testing.B) {
	m, err := workload.Build(workload.LC, 300, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := solve.NewInstance(m)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	mst, err := solve.Solve(ctx, inst, solve.Request{Solver: "mst"})
	if err != nil {
		b.Fatal(err)
	}
	for _, info := range solve.Solvers() {
		req := solve.Request{Solver: info.Name}
		switch info.Knob {
		case solve.KnobBudget:
			req.Budget = mst.Storage * 1.5
		case solve.KnobThetaMax:
			req.Theta = mst.MaxR
		case solve.KnobThetaSum:
			req.Theta = mst.SumR
		case solve.KnobAlpha:
			req.Alpha = 2
		}
		if info.Name == "exact" {
			req.MaxNodes = 100_000
		}
		b.Run(info.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := solve.Solve(ctx, inst, req)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Storage/mst.Storage, "storage/minΔ")
				}
			}
		})
	}
}

// --- Ablations --------------------------------------------------------------

// Delta revelation radius: how the k-hop reveal rule affects the minimum
// storage the MCA can find (more revealed deltas → more redundancy caught).
func BenchmarkAblationReveal2Hop(b *testing.B)  { benchReveal(b, 2) }
func BenchmarkAblationReveal5Hop(b *testing.B)  { benchReveal(b, 5) }
func BenchmarkAblationReveal10Hop(b *testing.B) { benchReveal(b, 10) }

func benchReveal(b *testing.B, hops int) {
	vg, err := workload.Generate(workload.GraphParams{
		Commits: 300, BranchInterval: 2, BranchProb: 0.9,
		BranchLimit: 4, BranchLength: 3, MergeProb: 0.3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var storage float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := vg.SynthCosts(workload.CostParams{
			BaseSize: 350e3, SizeDrift: 0.02, EditFrac: 0.02, EditFracVar: 0.5,
			RevealHops: hops, Directed: true, ReverseAsym: 1.4, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		inst, err := solve.NewInstance(m)
		if err != nil {
			b.Fatal(err)
		}
		s, err := solve.MinStorage(inst)
		if err != nil {
			b.Fatal(err)
		}
		storage = s.Storage
	}
	b.ReportMetric(storage/1e6, "MCA-MB")
}

// Delta mechanisms: line diff vs compressed diff on real content
// (the §2.1 delta-variant dimension).
func contentPair(b *testing.B) ([]byte, []byte) {
	b.Helper()
	vg, err := workload.Generate(workload.GraphParams{Commits: 2, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	c, err := vg.Materialize(workload.ContentParams{Rows: 500, Cols: 8, OpsPerEdge: 4, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	return c.Payload[0], c.Payload[1]
}

func BenchmarkDeltaLineDiff(b *testing.B) {
	a, c := contentPair(b)
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		d := delta.DiffLines(a, c)
		size = len(delta.Encode(d, true))
	}
	b.ReportMetric(float64(size), "delta-bytes")
}

func BenchmarkDeltaCompressedDiff(b *testing.B) {
	a, c := contentPair(b)
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		d := delta.DiffLines(a, c)
		size = len(delta.Compress(delta.Encode(d, true)))
	}
	b.ReportMetric(float64(size), "delta-bytes")
}

func BenchmarkDeltaApplyEncoded(b *testing.B) {
	a, c := contentPair(b)
	enc := delta.Encode(delta.DiffLines(a, c), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := delta.ApplyEncoded(enc, a); err != nil {
			b.Fatal(err)
		}
	}
}

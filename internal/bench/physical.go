package bench

import (
	"context"
	"fmt"
	"os"

	"versiondb/internal/solve"
	"versiondb/internal/store"
	"versiondb/internal/workload"
)

// PhysicalRow compares the Φ cost model against measured checkout work for
// one solver's layout.
type PhysicalRow struct {
	Algorithm    string
	ModelSumR    float64 // Σ recreation predicted by the solution
	MeasuredSumR float64 // Σ bytes actually read+applied by Layout.Checkout
	Ratio        float64 // measured / model
	StoredBytes  int64
	MaxChain     int
}

// Physical validates the reproduction end to end: it materializes a real
// content workload, differences it, solves with MCA, LMG and SPT, lays
// each solution out in an on-disk object store, checks out every version
// (verifying byte-identity), and compares the model's recreation costs
// with the bytes the store actually processed. With uncompressed one-way
// diffs the two are the same quantity measured through two different
// stacks, so Ratio ≈ 1 — any drift indicates a modeling bug.
func Physical(versions int, seed int64) ([]PhysicalRow, error) {
	if versions <= 2 {
		versions = 40
	}
	vg, err := workload.Generate(workload.GraphParams{
		Commits:        versions,
		BranchInterval: 5,
		BranchProb:     0.6,
		BranchLimit:    2,
		BranchLength:   4,
		MergeProb:      0.2,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	contents, err := vg.Materialize(workload.ContentParams{Rows: 200, Cols: 6, OpsPerEdge: 3, Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	m, err := contents.Costs(6, true, workload.PlainDiff)
	if err != nil {
		return nil, err
	}
	inst, err := solve.NewInstance(m)
	if err != nil {
		return nil, err
	}
	mca, err := solve.MinStorage(inst)
	if err != nil {
		return nil, err
	}
	spt, err := solve.MinRecreation(inst)
	if err != nil {
		return nil, err
	}
	lmg, err := solve.Solve(context.Background(), inst, solve.Request{
		Solver: "lmg", Budget: mca.Storage * 1.5, Hints: &solve.Hints{MST: mca, SPT: spt},
	})
	if err != nil {
		return nil, err
	}
	var rows []PhysicalRow
	for _, sol := range []*solve.Solution{mca, lmg.Solution, spt} {
		row, err := physicalRow(contents.Payload, sol)
		if err != nil {
			return nil, fmt.Errorf("bench: physical %s: %w", sol.Algorithm, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func physicalRow(payloads [][]byte, sol *solve.Solution) (PhysicalRow, error) {
	dir, err := os.MkdirTemp("", "vdb-physical-*")
	if err != nil {
		return PhysicalRow{}, err
	}
	defer os.RemoveAll(dir)
	s, err := store.Open(dir)
	if err != nil {
		return PhysicalRow{}, err
	}
	layout, err := store.BuildLayout(s, payloads, sol.Tree, false, nil)
	if err != nil {
		return PhysicalRow{}, err
	}
	var measured float64
	maxChain := 0
	// One memoized O(n) pass over the cold-cost DP instead of a chain walk
	// per version — the same accounting WeightedPhi and /stats read.
	work, hops := layout.ChainCosts()
	for v := range payloads {
		got, err := layout.Checkout(v)
		if err != nil {
			return PhysicalRow{}, err
		}
		if string(got) != string(payloads[v]) {
			return PhysicalRow{}, fmt.Errorf("version %d not byte-identical after layout", v)
		}
		if work[v] < 0 {
			return PhysicalRow{}, fmt.Errorf("version %d reports a corrupt delta chain", v)
		}
		measured += float64(work[v])
		if hops[v] > maxChain {
			maxChain = hops[v]
		}
	}
	row := PhysicalRow{
		Algorithm:    sol.Algorithm,
		ModelSumR:    sol.SumR,
		MeasuredSumR: measured,
		StoredBytes:  layout.StoredBytes(),
		MaxChain:     maxChain,
	}
	if sol.SumR > 0 {
		row.Ratio = measured / sol.SumR
	}
	return row, nil
}

// FormatPhysical renders the validation table.
func FormatPhysical(w *os.File, rows []PhysicalRow) {
	fmt.Fprintln(w, "== physical: Φ model vs measured checkout work ==")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-5s model ΣR=%12.0f  measured ΣR=%12.0f  ratio=%.4f  stored=%d  maxChain=%d\n",
			r.Algorithm, r.ModelSumR, r.MeasuredSumR, r.Ratio, r.StoredBytes, r.MaxChain)
	}
}

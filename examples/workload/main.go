// Workload-aware storage (paper §5.3, Figure 16): when access frequencies
// are skewed — a few versions served constantly, a long tail touched rarely
// — LMG can weight its greedy ratio by frequency and spend the storage
// budget on the hot versions.
package main

import (
	"context"
	"fmt"
	"log"

	"versiondb"
)

func main() {
	// A DC-style dense version graph with 200 versions.
	m, err := versiondb.BuildWorkload(versiondb.DC, 200, true, 7)
	if err != nil {
		log.Fatal(err)
	}
	inst, err := versiondb.NewInstance(m)
	if err != nil {
		log.Fatal(err)
	}
	// Zipf-distributed access frequencies (exponent 2, like the paper).
	freq := versiondb.Zipf(m.N(), 2, 7)

	ctx := context.Background()
	mca, err := versiondb.Solve(ctx, inst, versiondb.Request{Solver: "mst"})
	if err != nil {
		log.Fatal(err)
	}
	budgets, err := versiondb.Budgets(inst, 5)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("budget        plain-LMG weighted ΣR   aware-LMG weighted ΣR   improvement")
	w := make([]float64, m.N()+1) // augmented-graph weights (root = 0)
	copy(w[1:], freq)
	for _, b := range budgets[1:] { // skip the MCA point where nothing moves
		plain, err := versiondb.Solve(ctx, inst, versiondb.Request{Solver: "lmg", Budget: b})
		if err != nil {
			log.Fatal(err)
		}
		aware, err := versiondb.Solve(ctx, inst, versiondb.Request{Solver: "lmg", Budget: b, Weights: freq})
		if err != nil {
			log.Fatal(err)
		}
		pw := plain.Tree.WeightedSumRecreation(w)
		aw := aware.Tree.WeightedSumRecreation(w)
		fmt.Printf("%-12.0f  %-22.0f  %-22.0f  %.2f×\n", b, pw, aw, pw/aw)
	}
	fmt.Printf("(minimum storage %.0f; budgets interpolate toward the SPT)\n", mca.Storage)
}

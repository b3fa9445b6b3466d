// Online versioning (the paper's §7 future work): versions arrive one at a
// time and must be placed immediately — materialize or delta against an
// existing version — with an optional periodic offline re-optimization.
// This example streams a DC-style workload through the online store and
// compares three strategies against the offline optimum.
package main

import (
	"context"
	"fmt"
	"log"

	"versiondb"
	"versiondb/internal/costs"
	"versiondb/internal/solve"
)

func main() {
	const n = 300
	m, err := versiondb.BuildWorkload(versiondb.DC, n, true, 11)
	if err != nil {
		log.Fatal(err)
	}
	inst, err := versiondb.NewInstance(m)
	if err != nil {
		log.Fatal(err)
	}
	offline, err := versiondb.Solve(context.Background(), inst, versiondb.Request{Solver: "mst"})
	if err != nil {
		log.Fatal(err)
	}

	// Strategy 1: greedy min-delta on arrival.
	greedy := versiondb.NewOnline(versiondb.OnlineOptions{Policy: versiondb.OnlineMinDelta, Directed: true})
	feed(m, greedy, 0)

	// Strategy 2: greedy with a recreation bound (online Problem 6).
	var maxSize float64
	for v := 0; v < n; v++ {
		p, _ := m.Full(v)
		if p.Recreate > maxSize {
			maxSize = p.Recreate
		}
	}
	bounded := versiondb.NewOnline(versiondb.OnlineOptions{
		Policy: versiondb.OnlineBounded, Theta: 1.5 * maxSize, Directed: true,
	})
	feed(m, bounded, 0)

	// Strategy 3: greedy + LMG re-optimization every 100 arrivals.
	periodic := versiondb.NewOnline(versiondb.OnlineOptions{Policy: versiondb.OnlineMinDelta, Directed: true})
	feed(m, periodic, 100)

	fmt.Printf("offline MCA:            storage=%11.0f  ΣR=%12.0f\n", offline.Storage, offline.SumR)
	report("online greedy", greedy)
	report("online bounded (1.5×)", bounded)
	report("online + periodic LMG", periodic)
	fmt.Printf("greedy overhead vs offline optimum: %.2f%%\n",
		100*(greedy.Storage()-offline.Storage)/offline.Storage)
}

// feed streams the matrix version-by-version; reoptEvery > 0 triggers LMG
// with a 1.25× budget at that cadence.
func feed(m *versiondb.Matrix, o *solve.Online, reoptEvery int) {
	n := m.N()
	for v := 0; v < n; v++ {
		full, _ := m.Full(v)
		in := map[int]costs.Pair{}
		for u := 0; u < v; u++ {
			if p, ok := m.Delta(u, v); ok {
				in[u] = p
			}
		}
		if _, err := o.Add(full, in); err != nil {
			log.Fatal(err)
		}
		if reoptEvery > 0 && (v+1)%reoptEvery == 0 {
			if _, err := o.Reoptimize(1.25); err != nil {
				log.Fatal(err)
			}
		}
	}
}

func report(name string, o *solve.Online) {
	fmt.Printf("%-23s storage=%11.0f  ΣR=%12.0f  maxR=%10.0f\n",
		name, o.Storage(), o.SumRecreation(), o.MaxRecreation())
}

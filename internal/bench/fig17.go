package bench

import (
	"context"
	"fmt"
	"time"

	"versiondb/internal/solve"
	"versiondb/internal/workload"
)

// RuntimePoint is one measurement of the Figure 17 scaling experiment.
type RuntimePoint struct {
	Dataset  string
	Versions int
	LMGSec   float64 // LMG proper (given MST/MCA and SPT)
	TotalSec float64 // MST/MCA + SPT + LMG, the paper's "Total"
	Directed bool
	Repeats  int
}

// Fig17 regenerates Figure 17: LMG running time against the number of
// versions, on BFS-extracted subgraphs of the DC and LC datasets, in both
// the directed and undirected regimes. Each size is averaged over repeats
// subgraphs (the paper uses 5); the LMG budget is 3× the MST/MCA storage,
// as in §5.3.
func Fig17(s Scale, sizes []int, repeats int) ([]RuntimePoint, error) {
	s = s.orDefault()
	if repeats <= 0 {
		repeats = 3
	}
	var out []RuntimePoint
	for _, directed := range []bool{true, false} {
		for _, p := range []workload.Preset{workload.LC, workload.DC} {
			full, err := workload.Build(p, s.of(p), directed, s.Seed)
			if err != nil {
				return nil, err
			}
			for _, n := range sizes {
				if n > full.N() {
					continue
				}
				var lmgSec, totalSec float64
				done := 0
				for r := 0; r < repeats; r++ {
					sub, err := workload.Subgraph(full, n, s.Seed+int64(100*r+n))
					if err != nil {
						return nil, fmt.Errorf("bench: fig17 %s n=%d: %w", p, n, err)
					}
					inst, err := solve.NewInstance(sub)
					if err != nil {
						return nil, err
					}
					t0 := time.Now()
					mst, err := solve.MinStorage(inst)
					if err != nil {
						return nil, err
					}
					spt, err := solve.MinRecreation(inst)
					if err != nil {
						return nil, err
					}
					sol, err := solve.Solve(context.Background(), inst, solve.Request{
						Solver: "lmg", Budget: 3 * mst.Storage, Hints: &solve.Hints{MST: mst, SPT: spt},
					})
					if err != nil {
						return nil, err
					}
					totalSec += time.Since(t0).Seconds()
					lmgSec += sol.Elapsed.Seconds()
					done++
				}
				out = append(out, RuntimePoint{
					Dataset:  string(p),
					Versions: n,
					LMGSec:   lmgSec / float64(done),
					TotalSec: totalSec / float64(done),
					Directed: directed,
					Repeats:  done,
				})
			}
		}
	}
	return out, nil
}

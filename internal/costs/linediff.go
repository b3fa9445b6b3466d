package costs

import (
	"context"
	"sync"
	"sync/atomic"

	"versiondb/internal/delta"
)

// LineDiffs builds the directed cost matrix of one-way line deltas among
// payloads: ⟨Δ, Φ⟩ is the payload size on the diagonal and, for every
// target u listed in pairs[s], the encoded delta sizes s→u and u→s. It is
// the one sizing path behind Optimize's matrix and the content-backed
// experiments.
//
// Lines are interned once for all payloads (delta.LineTable). Sources fan
// out across workers goroutines, each with its own differ scratch; ctx is
// checked once per source, and on cancellation LineDiffs returns ctx's
// error after every worker has exited. Results are applied in ascending
// source order, so the matrix does not depend on scheduling.
//
// No delta edge enters a payload that is not delta.LineExact: a line delta
// rebuilds only the canonical line form, so such a version can only be
// materialized.
func LineDiffs(ctx context.Context, payloads [][]byte, pairs [][]int, workers int) (*Matrix, error) {
	n := len(payloads)
	m := NewMatrix(n, true)
	exact := make([]bool, n)
	for v, p := range payloads {
		m.SetFull(v, float64(len(p)), float64(len(p)))
		exact[v] = delta.LineExact(p)
	}
	table := delta.NewLineTable(payloads)
	// sizes[s][i] = {s→pairs[s][i], pairs[s][i]→s}; -1 marks an edge
	// into a payload that is not line-exact.
	sizes := make([][][2]int, n)
	workers = max(1, min(workers, n))
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch delta.Scratch
			for {
				s := int(next.Add(1) - 1)
				if s >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				row := make([][2]int, len(pairs[s]))
				for i, u := range pairs[s] {
					row[i] = [2]int{-1, -1}
					if !exact[s] && !exact[u] {
						continue
					}
					fwd, bwd := table.Sizes(s, u, &scratch)
					if exact[u] {
						row[i][0] = fwd
					}
					if exact[s] {
						row[i][1] = bwd
					}
				}
				sizes[s] = row
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for s, row := range sizes {
		for i, u := range pairs[s] {
			if fwd := row[i][0]; fwd >= 0 {
				m.SetDelta(s, u, float64(fwd), float64(fwd))
			}
			if bwd := row[i][1]; bwd >= 0 {
				m.SetDelta(u, s, float64(bwd), float64(bwd))
			}
		}
	}
	return m, nil
}

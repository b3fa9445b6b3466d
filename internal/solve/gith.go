package solve

import (
	"context"
	"fmt"
	"sort"
	"time"

	"versiondb/internal/graph"
)

// githOptions configures the Git repack heuristic.
type githOptions struct {
	// Window is the sliding window size w (Git default 10).
	Window int
	// MaxDepth is the maximum delta-chain depth d (Git default 50).
	MaxDepth int
	// NoDepthBias disables the (d − depth) divisor, reverting to the
	// original raw-delta-size choice; used by the ablation benchmark.
	NoDepthBias bool
}

// githRun runs the Git repack heuristic as reverse-engineered in the
// paper's Appendix A (§4.4). Versions are considered in non-increasing
// size order; each version picks, from a sliding window of recently placed
// versions, the parent minimizing the depth-biased delta size
// Δl,i/(d − depth(l)), falling back to materialization when no window
// delta beats storing the version whole or all window candidates are at
// maximum depth. The window is then shuffled exactly as git's
// ll_find_deltas does: the chosen parent moves to the end (staying in the
// window longer). It backs the registered "gith" solver; ctx is checked
// once per placed version.
func githRun(ctx context.Context, inst *Instance, opts githOptions) (*Solution, error) {
	start := time.Now()
	m := inst.M
	n := m.N()
	// Step 1: sort by full size, largest first (git's type_size_sort).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sizes := make([]float64, n)
	for i := 0; i < n; i++ {
		p, ok := m.Full(i)
		if !ok {
			return nil, fmt.Errorf("solve: GitH: version %d has no materialization cost", i)
		}
		sizes[i] = p.Storage
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })

	depth := make([]int, n)
	t := graph.NewTree(n+1, Root)
	window := make([]int, 0, opts.Window)
	for k, vi := range order {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		full, _ := m.Full(vi)
		if k == 0 {
			t.SetEdge(graph.Edge{From: Root, To: vi + 1, Storage: full.Storage, Recreate: full.Recreate})
			depth[vi] = 0
			window = append(window, vi)
			continue
		}
		bestScore := graph.Inf
		best := -1
		var bestPair graph.Edge
		for _, vl := range window {
			if depth[vl] >= opts.MaxDepth {
				continue
			}
			p, ok := m.Delta(vl, vi)
			if !ok {
				continue
			}
			// git only keeps a delta that beats storing the object whole.
			if p.Storage >= full.Storage {
				continue
			}
			score := p.Storage
			if !opts.NoDepthBias {
				score = p.Storage / float64(opts.MaxDepth-depth[vl])
			}
			if score < bestScore {
				bestScore = score
				best = vl
				bestPair = graph.Edge{From: vl + 1, To: vi + 1, Storage: p.Storage, Recreate: p.Recreate}
			}
		}
		if best >= 0 {
			t.SetEdge(bestPair)
			depth[vi] = depth[best] + 1
			// Window shuffle: chosen parent moves behind the new object.
			idx := -1
			for i, w := range window {
				if w == best {
					idx = i
					break
				}
			}
			window = append(window[:idx], window[idx+1:]...)
			window = append(window, vi, best)
		} else {
			t.SetEdge(graph.Edge{From: Root, To: vi + 1, Storage: full.Storage, Recreate: full.Recreate})
			depth[vi] = 0
			window = append(window, vi)
		}
		if len(window) > opts.Window {
			window = window[len(window)-opts.Window:]
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("solve: GitH produced invalid tree: %w", err)
	}
	return newSolution("GitH", float64(opts.Window), t, start), nil
}

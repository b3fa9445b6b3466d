package solve

import (
	"context"
	"testing"

	"versiondb/internal/workload"
)

// Ablations of two design knobs the registry does not expose: LMG's
// subtree-aggregate maintenance and GitH's depth bias. Run:
//
//	go test -run xxx -bench Ablation ./internal/solve/

// benchInstance builds a preset workload instance outside the timed loop.
func benchInstance(b *testing.B, p workload.Preset, n int) *Instance {
	b.Helper()
	m, err := workload.Build(p, n, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := NewInstance(m)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// LMG subtree maintenance: O(V²) incremental vs the naive O(V³) variant.
func BenchmarkAblationLMGSubtreeFast(b *testing.B)  { benchLMGSubtree(b, false) }
func BenchmarkAblationLMGSubtreeNaive(b *testing.B) { benchLMGSubtree(b, true) }

func benchLMGSubtree(b *testing.B, naive bool) {
	// LC's mostly-linear history yields deep storage trees, where the
	// O(V²) incremental maintenance separates from the naive walk (on
	// shallow DC trees the naive walk's smaller constants win).
	inst := benchInstance(b, workload.LC, 400)
	mst, err := MinStorage(inst)
	if err != nil {
		b.Fatal(err)
	}
	spt, err := MinRecreation(inst)
	if err != nil {
		b.Fatal(err)
	}
	opts := lmgOptions{Budget: 3 * mst.Storage, NaiveSubtree: naive, MST: mst, SPT: spt}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lmgRun(context.Background(), inst, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// GitH depth bias: with vs without the (d − depth) divisor of Appendix A.
func BenchmarkAblationGitHDepthBias(b *testing.B)   { benchGitHBias(b, false) }
func BenchmarkAblationGitHNoDepthBias(b *testing.B) { benchGitHBias(b, true) }

func benchGitHBias(b *testing.B, noBias bool) {
	inst := benchInstance(b, workload.DC, 500)
	opts := githOptions{Window: 10, MaxDepth: 10, NoDepthBias: noBias}
	b.ResetTimer()
	var maxR float64
	for i := 0; i < b.N; i++ {
		s, err := githRun(context.Background(), inst, opts)
		if err != nil {
			b.Fatal(err)
		}
		maxR = s.MaxR
	}
	b.ReportMetric(maxR, "maxR")
}

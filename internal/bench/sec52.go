package bench

import (
	"context"
	"fmt"

	"versiondb/internal/delta"
	"versiondb/internal/solve"
	"versiondb/internal/workload"
)

// Sec52Row is one storage-strategy measurement of the §5.2 comparison.
type Sec52Row struct {
	System      string
	StoredBytes float64
	Note        string
}

// Sec52 regenerates the §5.2 comparison of storage strategies on an
// LF-style content workload. The paper compared SVN (skip-deltas), naive
// gzip of every version, Git repack, and its MCA solution; we substitute
// a faithful model of each mechanism over the same real payloads:
//
//   - Naive: every version stored whole.
//   - Gzip: every version flate-compressed independently.
//   - SVN: skip-deltas — version i is stored as a (compressed) delta
//     against version i − 2^k where 2^k is the largest power of two
//     dividing i, guaranteeing O(log n) reconstruction chains at the price
//     of repeatedly storing redundant delta content (the paper's diagnosis
//     of SVN's poor performance).
//   - GitH: our Git repack heuristic (window 50, depth 50), compressed.
//   - MCA: the minimum-cost arborescence, compressed.
//
// The expected *shape* is the paper's ordering (its §5.2 numbers were
// gzip 10.2GB > SVN 8.5GB ≫ MCA-diff 516MB > Git 202MB ≈ MCA-xdiff 159MB):
// Naive > Gzip > SVN ≫ GitH ≥ MCA.
func Sec52(versions int, seed int64) ([]Sec52Row, error) {
	if versions <= 2 {
		versions = 60
	}
	vg, err := workload.Generate(workload.GraphParams{
		Commits:        versions,
		BranchInterval: 8,
		BranchProb:     0.5,
		BranchLimit:    2,
		BranchLength:   6,
		MergeProb:      0.2,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	contents, err := vg.Materialize(workload.ContentParams{
		Rows: 400, Cols: 8, OpsPerEdge: 3, Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	var naive, gz float64
	for _, p := range contents.Payload {
		naive += float64(len(p))
		gz += float64(len(delta.Compress(p)))
	}
	svn := svnSkipDeltaBytes(contents.Payload)

	m, err := contents.Costs(8, true, workload.CompressedDiff)
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
	gith, err := solve.Solve(context.Background(), inst, solve.Request{Solver: "gith", Window: 50, MaxDepth: 50})
	if err != nil {
		return nil, err
	}
	return []Sec52Row{
		{System: "Naive (all full)", StoredBytes: naive},
		{System: "Gzip each version", StoredBytes: gz},
		{System: "SVN (skip-deltas)", StoredBytes: svn, Note: "compressed skip-delta model"},
		{System: "GitH (w=50,d=50)", StoredBytes: gith.Storage, Note: "compressed deltas"},
		{System: "MCA", StoredBytes: mca.Storage, Note: "compressed deltas"},
	}, nil
}

// svnSkipDeltaBytes models SVN FSFS skip-deltas over the commit order:
// version 0 is stored whole; version i is stored as the compressed one-way
// delta from version i − 2^k, k = trailing zeros of i. Reconstruction then
// needs at most ⌈log2 n⌉ delta applications, which is exactly why SVN
// "repeatedly stores redundant delta information" (§5.2).
func svnSkipDeltaBytes(payloads [][]byte) float64 {
	total := float64(len(delta.Compress(payloads[0])))
	for i := 1; i < len(payloads); i++ {
		base := i - (i & -i)
		d := delta.DiffLines(payloads[base], payloads[i])
		total += float64(len(delta.Compress(delta.Encode(d, true))))
	}
	return total
}

// Sec52Ordering checks the paper's qualitative result on a run.
func Sec52Ordering(rows []Sec52Row) error {
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.System] = r.StoredBytes
	}
	naive := byName["Naive (all full)"]
	svn := byName["SVN (skip-deltas)"]
	gz := byName["Gzip each version"]
	gith := byName["GitH (w=50,d=50)"]
	mca := byName["MCA"]
	if !(naive > gz && gz > svn && svn > gith && gith >= mca) {
		return fmt.Errorf("bench: §5.2 ordering violated: naive=%g gzip=%g svn=%g gith=%g mca=%g", naive, gz, svn, gith, mca)
	}
	return nil
}

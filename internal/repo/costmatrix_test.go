package repo

// Differential tests for Optimize's diff phase: the interned, fanned-out
// kernel (costs.LineDiffs) must reproduce, entry for entry, the matrix the
// original per-pair DiffLines+Encode loop computed, and every registered
// solver must then lay the repository out byte for byte the same.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"versiondb/internal/costs"
	"versiondb/internal/dataset"
	"versiondb/internal/delta"
	"versiondb/internal/solve"
	"versiondb/internal/store"
	"versiondb/internal/workload"
)

// costMatrixOracle is costMatrix as it was before the kernel: a serial
// hop-limited BFS per source that diffs each pair from the raw payloads
// and encodes both directions to take their lengths. It is kept as the
// test-only oracle the kernel must agree with.
func costMatrixOracle(ctx context.Context, versions []VersionInfo, payloads [][]byte, hops int) (*costs.Matrix, error) {
	n := len(payloads)
	m := costs.NewMatrix(n, true)
	for v := 0; v < n; v++ {
		m.SetFull(v, float64(len(payloads[v])), float64(len(payloads[v])))
	}
	adj := make([][]int, n)
	for _, v := range versions {
		for _, p := range v.Parents {
			adj[p] = append(adj[p], v.ID)
			adj[v.ID] = append(adj[v.ID], p)
		}
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	for s := 0; s < n; s++ {
		if err := ctx.Err(); err != nil {
			return nil, optimizeCanceled(err)
		}
		queue := []int{s}
		dist[s] = 0
		touched := []int{s}
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if dist[v] == hops {
				continue
			}
			for _, u := range adj[v] {
				if dist[u] == -1 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
					touched = append(touched, u)
					if s < u {
						d := delta.DiffLines(payloads[s], payloads[u])
						fwd := delta.Encode(d, true)
						bwd := delta.Encode(d.Invert(), true)
						m.SetDelta(s, u, float64(len(fwd)), float64(len(fwd)))
						m.SetDelta(u, s, float64(len(bwd)), float64(len(bwd)))
					}
				}
			}
		}
		for _, v := range touched {
			dist[v] = -1
		}
	}
	return m, nil
}

// generatedVersions builds a §5.1-style dataset — a bushy version graph
// with merges, CSV payloads evolved by random edit scripts — as the
// (versions, payloads) snapshot Optimize diffs. It fails the test unless
// the scripts include column adds and removes, the edits that rewrite
// every line of a pair.
func generatedVersions(tb testing.TB, commits int, seed int64) ([]VersionInfo, [][]byte) {
	tb.Helper()
	vg, err := workload.Generate(workload.GraphParams{
		Commits: commits, BranchInterval: 2, BranchProb: 1, BranchLimit: 3,
		BranchLength: 3, MergeProb: 0.2, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := vg.Materialize(workload.ContentParams{Rows: 60, Cols: 20, OpsPerEdge: 1, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	kinds := map[dataset.OpKind]bool{}
	for _, s := range c.Scripts {
		for _, op := range s {
			kinds[op.Kind] = true
		}
	}
	if !kinds[dataset.OpAddColumn] || !kinds[dataset.OpRemoveColumn] {
		tb.Fatalf("seed %d: dataset has no column add or remove (op kinds %v)", seed, kinds)
	}
	versions := make([]VersionInfo, vg.N)
	for v := range versions {
		versions[v] = VersionInfo{ID: v, Parents: vg.Parents[v]}
	}
	return versions, c.Payload
}

// sameMatrix fails the test unless a and b hold exactly the same entries.
func sameMatrix(t *testing.T, got, want *costs.Matrix) {
	t.Helper()
	if got.N() != want.N() || got.NumDeltas() != want.NumDeltas() {
		t.Fatalf("matrix shape: %d versions/%d deltas, want %d/%d", got.N(), got.NumDeltas(), want.N(), want.NumDeltas())
	}
	for v := 0; v < want.N(); v++ {
		g, _ := got.Full(v)
		w, _ := want.Full(v)
		if g != w {
			t.Fatalf("Full(%d) = %+v, want %+v", v, g, w)
		}
	}
	want.EachDelta(func(i, j int, w costs.Pair) {
		if g, ok := got.Delta(i, j); !ok || g != w {
			t.Fatalf("Delta(%d,%d) = %+v (revealed %v), want %+v", i, j, g, ok, w)
		}
	})
}

func TestCostMatrixMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			versions, payloads := generatedVersions(t, 120, seed)
			want, err := costMatrixOracle(context.Background(), versions, payloads, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := costMatrix(context.Background(), versions, payloads, 5)
			if err != nil {
				t.Fatal(err)
			}
			sameMatrix(t, got, want)
		})
	}
}

// TestSolverLayoutsMatchOracle solves the kernel's matrix and the oracle's
// with every registered solver and builds both layouts: the entries —
// parents, blob ids, stored sizes — must be identical.
func TestSolverLayoutsMatchOracle(t *testing.T) {
	versions, payloads := generatedVersions(t, 30, 6)
	want, err := costMatrixOracle(context.Background(), versions, payloads, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := costMatrix(context.Background(), versions, payloads, 4)
	if err != nil {
		t.Fatal(err)
	}
	layout := func(t *testing.T, m *costs.Matrix, name string) ([]store.Entry, error) {
		inst, err := solve.NewInstance(m)
		if err != nil {
			t.Fatal(err)
		}
		req, _, err := solveRequest(inst, versions, OptimizeOptions{Request: solve.Request{Solver: name}}, 1)
		if err != nil {
			return nil, err
		}
		res, err := solve.Solve(context.Background(), inst, req)
		if err != nil {
			return nil, err
		}
		l, err := store.BuildLayout(store.NewMemStore(), payloads, res.Tree, false)
		if err != nil {
			t.Fatalf("BuildLayout(%s): %v", name, err)
		}
		return l.Entries, nil
	}
	for _, name := range solve.Names() {
		t.Run(name, func(t *testing.T) {
			wantEntries, wantErr := layout(t, want, name)
			gotEntries, gotErr := layout(t, got, name)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("solve error %v, oracle matrix gives %v", gotErr, wantErr)
			}
			if len(gotEntries) != len(wantEntries) {
				t.Fatalf("%d entries, want %d", len(gotEntries), len(wantEntries))
			}
			for v := range wantEntries {
				if gotEntries[v] != wantEntries[v] {
					t.Fatalf("entry %d = %+v, want %+v", v, gotEntries[v], wantEntries[v])
				}
			}
		})
	}
}

// TestOptimizeCanceledDuringDiffFanOut cancels from the "diff" progress
// callback, so the fanned-out workers find the context canceled: Optimize
// must report solve.ErrCanceled, leave every version serving its committed
// bytes, and leave no differencing goroutine behind.
func TestOptimizeCanceledDuringDiffFanOut(t *testing.T) {
	r := newRepo(t)
	payloads := seedRepo(t, r, 12)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := r.Optimize(ctx, OptimizeOptions{
		Request: solve.Request{Solver: "lmg"},
		Progress: func(phase string) {
			if phase == "diff" {
				cancel()
			}
		},
	})
	if !errors.Is(err, solve.ErrCanceled) {
		t.Fatalf("Optimize canceled during diff: err = %v, want solve.ErrCanceled", err)
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "costs.LineDiffs") {
		t.Fatalf("a differencing goroutine outlived Optimize:\n%s", stacks)
	}
	for v, want := range payloads {
		got, err := r.Checkout(v)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Checkout(%d) after canceled optimize: err=%v, equal=%v", v, err, bytes.Equal(got, want))
		}
	}
}

// TestUnterminatedPayloadChecksOutExact pins the trailing-newline fix: a
// payload that does not end in a newline must check out byte for byte,
// after its commit and after an Optimize with every registered solver,
// buffered and streamed. A line delta would rebuild it with an extra "\n",
// so no layout may ever store one into such a version.
func TestUnterminatedPayloadChecksOutExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var base []byte
	for len(base) < 700 {
		base = append(base, fmt.Sprintf("%d,%d,%d\n", rng.Intn(1000), rng.Intn(1000), rng.Intn(1000))...)
	}
	base = base[:bytes.LastIndexByte(base[:700], '\n')+1]
	tail := append(append([]byte(nil), base...), "tail"...)
	grown := append(append([]byte(nil), base...), "1,2,3\n"...)
	retailed := append(append([]byte(nil), grown...), "tail again"...)
	payloads := [][]byte{base, tail, grown, retailed, []byte("one line")}

	check := func(t *testing.T, r *Repo, when string) {
		t.Helper()
		for v, want := range payloads {
			got, err := r.Checkout(v)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: Checkout(%d) = %d bytes (err %v), want %d", when, v, len(got), err, len(want))
			}
			rc, size, err := r.CheckoutStream(v)
			if err != nil {
				t.Fatalf("%s: CheckoutStream(%d): %v", when, v, err)
			}
			got, err = io.ReadAll(rc)
			rc.Close()
			if err != nil || size != int64(len(want)) || !bytes.Equal(got, want) {
				t.Fatalf("%s: CheckoutStream(%d) = %d bytes, size %d (err %v), want %d", when, v, len(got), size, err, len(want))
			}
		}
	}
	for _, name := range solve.Names() {
		t.Run(name, func(t *testing.T) {
			r := newRepo(t)
			for i, p := range payloads {
				if _, err := r.Commit(DefaultBranch, p, fmt.Sprintf("v%d", i)); err != nil {
					t.Fatalf("Commit(v%d): %v", i, err)
				}
			}
			check(t, r, "after commit")
			if _, err := r.Optimize(context.Background(), OptimizeOptions{
				Request: solve.Request{Solver: name}, NoAutoWeights: true,
			}); err != nil {
				t.Fatalf("Optimize(%s): %v", name, err)
			}
			check(t, r, "after optimize")
		})
	}
}

// BenchmarkOptimizeCostMatrix times Optimize's diff phase alone on a
// §5.1-style dataset of 240 versions at the default differencing radius.
func BenchmarkOptimizeCostMatrix(b *testing.B) {
	versions, payloads := generatedVersions(b, 240, 1)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := costMatrix(context.Background(), versions, payloads, 5); err != nil {
			b.Fatal(err)
		}
	}
}

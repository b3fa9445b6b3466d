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
	"slices"
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
			got, _, err := costMatrix(context.Background(), versions, payloads, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameMatrix(t, got, want)
		})
	}
	t.Run("sequence", func(t *testing.T) {
		memoSequence(t, "lmg", func(t *testing.T, r *Repo, hops int, err error) {
			if err != nil {
				t.Fatalf("Optimize: %v", err)
			}
			checkMemo(t, r, hops)
		})
	})
}

// layoutOf solves m with the named solver, as Optimize would with
// telemetry weights off, and builds the layout of payloads.
func layoutOf(t *testing.T, m *costs.Matrix, versions []VersionInfo, payloads [][]byte, name string) ([]store.Entry, error) {
	t.Helper()
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
	l, err := store.BuildLayout(store.NewMemStore(), payloads, res.Tree, false, nil)
	if err != nil {
		t.Fatalf("BuildLayout(%s): %v", name, err)
	}
	return l.Entries, nil
}

// sameLayout fails the test unless both solves agree: the same error, or
// identical entries.
func sameLayout(t *testing.T, got []store.Entry, gotErr error, want []store.Entry, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("solve error %v, oracle matrix gives %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("entry %d = %+v, want %+v", v, got[v], want[v])
		}
	}
}

// TestSolverLayoutsMatchOracle solves the kernel's matrix and the oracle's
// with every registered solver and builds both layouts: the entries —
// parents, blob ids, stored sizes — must be identical. Its sequence case
// does the same after every memo-backed Optimize of memoSequence, against
// the layout of a from-scratch matrix.
func TestSolverLayoutsMatchOracle(t *testing.T) {
	versions, payloads := generatedVersions(t, 30, 6)
	want, err := costMatrixOracle(context.Background(), versions, payloads, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := costMatrix(context.Background(), versions, payloads, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range solve.Names() {
		t.Run(name, func(t *testing.T) {
			wantEntries, wantErr := layoutOf(t, want, versions, payloads, name)
			gotEntries, gotErr := layoutOf(t, got, versions, payloads, name)
			sameLayout(t, gotEntries, gotErr, wantEntries, wantErr)
			t.Run("sequence", func(t *testing.T) {
				memoSequence(t, name, func(t *testing.T, r *Repo, hops int, err error) {
					versions, payloads, _ := snapshotOf(t, r)
					m, _, merr := costMatrix(context.Background(), versions, payloads, hops, nil)
					if merr != nil {
						t.Fatal(merr)
					}
					wantEntries, wantErr := layoutOf(t, m, versions, payloads, name)
					var gotEntries []store.Entry
					if err == nil {
						r.mu.RLock()
						gotEntries = append(gotEntries, r.layout.Entries...)
						r.mu.RUnlock()
					}
					sameLayout(t, gotEntries, err, wantEntries, wantErr)
				})
			})
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

// forkedVersions builds perfbench's dataset shape: forks independently
// generated §5.1-style graphs of perFork versions, each with its own 60-row
// × 20-column tables under the one header every generated table starts
// with, and each fork's root a child of the previous fork's root. A pair
// across two forks shares at most that header line.
func forkedVersions(tb testing.TB, forks, perFork int, seed int64) ([]VersionInfo, [][]byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	var versions []VersionInfo
	var payloads [][]byte
	root := 0
	for range forks {
		vg, err := workload.Generate(workload.GraphParams{
			Commits: perFork, BranchInterval: 2, BranchProb: 1, BranchLimit: 3,
			BranchLength: 3, MergeProb: 0.2, Seed: rng.Int63(),
		})
		if err != nil {
			tb.Fatal(err)
		}
		c, err := vg.Materialize(workload.ContentParams{Rows: 60, Cols: 20, OpsPerEdge: 1, Seed: rng.Int63()})
		if err != nil {
			tb.Fatal(err)
		}
		base := len(versions)
		for v, parents := range vg.Parents {
			shifted := make([]int, len(parents))
			for i, p := range parents {
				shifted[i] = base + p
			}
			if v == 0 && base > 0 {
				shifted = []int{root}
			}
			versions = append(versions, VersionInfo{ID: base + v, Parents: shifted})
			payloads = append(payloads, c.Payload[v])
		}
		root = base
	}
	return versions, payloads
}

// BenchmarkOptimizeCostMatrix times Optimize's diff phase alone at the
// default differencing radius, on a §5.1-style dataset of 240 versions and
// on perfbench's shape of 48 forks of 10, where most revealed pairs cross
// forks and share only their header.
func BenchmarkOptimizeCostMatrix(b *testing.B) {
	for _, bc := range []struct {
		name string
		gen  func(testing.TB) ([]VersionInfo, [][]byte)
	}{
		{"graph", func(tb testing.TB) ([]VersionInfo, [][]byte) { return generatedVersions(tb, 240, 1) }},
		{"forks", func(tb testing.TB) ([]VersionInfo, [][]byte) { return forkedVersions(tb, 48, 10, 1) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			versions, payloads := bc.gen(b)
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := costMatrix(context.Background(), versions, payloads, 5, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// history commits random CSV versions onto a repository: evolving
// branches, new branches and merges, and now and then a payload without a
// trailing newline (no delta edge may enter one).
type history struct {
	t      *testing.T
	rng    *rand.Rand
	tables map[int]*dataset.Table // version → the table it was built from
	tips   []string               // branches, DefaultBranch first
}

func newHistory(t *testing.T, seed int64) *history {
	return &history{t: t, rng: rand.New(rand.NewSource(seed)), tables: map[int]*dataset.Table{}}
}

// payload encodes tb, cutting the final newline off one payload in five.
func (h *history) payload(tb *dataset.Table) []byte {
	b, err := tb.EncodeCSV()
	if err != nil {
		h.t.Fatal(err)
	}
	if h.rng.Intn(5) == 0 {
		b = append(b, "unterminated"...)
	}
	return b
}

// evolve applies a random edit script to version v's table.
func (h *history) evolve(v int) *dataset.Table {
	tb := h.tables[v]
	out, err := dataset.RandomScript(h.rng, tb.NumRows(), tb.NumCols(), 2).Apply(tb)
	if err != nil {
		h.t.Fatal(err)
	}
	return out
}

// step makes n random operations on r: mostly commits, some branches, some
// merges. merges=false keeps every new version a leaf with one parent.
func (h *history) step(r *Repo, n int, merges bool) {
	h.t.Helper()
	for range n {
		if r.NumVersions() == 0 {
			tb := dataset.Random(h.rng, 40, 5)
			id, err := r.Commit(DefaultBranch, h.payload(tb), "root")
			if err != nil {
				h.t.Fatal(err)
			}
			h.tables[id], h.tips = tb, []string{DefaultBranch}
			continue
		}
		branch := h.tips[h.rng.Intn(len(h.tips))]
		tip, err := r.Tip(branch)
		if err != nil {
			h.t.Fatal(err)
		}
		switch k := h.rng.Intn(10); {
		case k == 0:
			name := fmt.Sprintf("b%d", len(h.tips))
			if err := r.Branch(name, h.rng.Intn(r.NumVersions())); err != nil {
				h.t.Fatal(err)
			}
			h.tips = append(h.tips, name)
		case k == 1 && merges && len(h.tips) > 1:
			other, err := r.Tip(h.tips[h.rng.Intn(len(h.tips))])
			if err != nil || other == tip {
				continue
			}
			tb := h.evolve(tip)
			id, err := r.Merge(branch, other, h.payload(tb), "merge")
			if err != nil {
				h.t.Fatal(err)
			}
			h.tables[id] = tb
		default:
			tb := h.evolve(tip)
			id, err := r.Commit(branch, h.payload(tb), "commit")
			if err != nil {
				h.t.Fatal(err)
			}
			h.tables[id] = tb
		}
	}
}

// snapshotOf copies r's versions, memo and payloads, as Optimize's
// snapshot does.
func snapshotOf(t *testing.T, r *Repo) ([]VersionInfo, [][]byte, costs.PairSizes) {
	t.Helper()
	r.mu.RLock()
	versions := append([]VersionInfo(nil), r.meta.Versions...)
	view := r.layout.Snapshot()
	memo := r.pairs
	r.mu.RUnlock()
	payloads, err := view.CheckoutAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return versions, payloads, memo
}

// checkMemo asserts that r's pair-size memo covers every pair revealed at
// hops, that the matrix built from it is the from-scratch matrix entry for
// entry, and that every pair it holds — of any radius — carries exactly
// the sizes the differ computes.
func checkMemo(t *testing.T, r *Repo, hops int) {
	t.Helper()
	ctx := context.Background()
	versions, payloads, memo := snapshotOf(t, r)
	want, _, err := costMatrix(ctx, versions, payloads, hops, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, fresh, err := costMatrix(ctx, versions, payloads, hops, memo)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 0 {
		t.Fatalf("memo misses %d pairs revealed at radius %d", len(fresh), hops)
	}
	sameMatrix(t, got, want)
	checkMemoSizes(t, payloads, memo)
}

// checkMemoSizes asserts that every pair in memo carries exactly the sizes
// the differ computes from payloads.
func checkMemoSizes(t *testing.T, payloads [][]byte, memo costs.PairSizes) {
	t.Helper()
	held := make([][]int, len(payloads))
	for _, p := range memo {
		held[p.S] = append(held[p.S], int(p.U))
	}
	_, truth, err := costs.LineDiffs(context.Background(), payloads, held, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(truth, memo) {
		t.Fatalf("memo holds sizes the differ does not compute (%d pairs, %d recomputed)", len(memo), len(truth))
	}
}

// follow brings a replica up to the primary's log head: the snapshot first
// when its cursor predates the last compaction, then the records.
func follow(t *testing.T, rep, primary *Repo) {
	t.Helper()
	applied, _, _ := rep.ReplicaStatus()
	view, err := primary.LogTail(context.Background(), applied, false)
	if err != nil {
		t.Fatal(err)
	}
	if view.Snapshot != nil {
		if err := rep.ApplySnapshot(view.Snapshot, view.BaseSeq); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rep.ApplyRecords(view.Records); err != nil {
		t.Fatal(err)
	}
}

// memoSequence drives one repository through the life the pair-size memo
// must survive, optimizing with solver: random commits, branches and
// merges; Optimize; more history; Optimize at another radius; a reopen
// that replays the log tail; a forced compaction and a reopen from the
// snapshot; Optimize with nothing new; more history; Optimize. After each
// Optimize, check sees the repository, the radius and Optimize's error.
// A replica follows the log record by record and another bootstraps from
// the final snapshot; both must end with the primary's memo.
func memoSequence(t *testing.T, solver string, check func(t *testing.T, r *Repo, hops int, err error)) {
	mem := store.NewMemStore()
	r, err := InitBackend(mem)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := OpenReplica(mem)
	if err != nil {
		t.Fatal(err)
	}
	h := newHistory(t, 23)
	optimize := func(hops int) {
		t.Helper()
		_, err := r.Optimize(context.Background(), OptimizeOptions{
			Request: solve.Request{Solver: solver}, RevealHops: hops, NoAutoWeights: true,
		})
		check(t, r, hops, err)
		follow(t, rep, r)
	}
	reopen := func() {
		t.Helper()
		_, _, memo := snapshotOf(t, r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if r, err = OpenBackend(mem); err != nil {
			t.Fatal(err)
		}
		if _, _, got := snapshotOf(t, r); !slices.Equal(got, memo) {
			t.Fatalf("reopen: memo of %d pairs, want the %d before", len(got), len(memo))
		}
	}
	h.step(r, 20, true)
	optimize(3)
	h.step(r, 8, true)
	optimize(5)
	reopen()
	r.mu.Lock()
	err = r.compact()
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	reopen()
	optimize(5)
	h.step(r, 4, true)
	optimize(5)
	fresh, err := OpenReplica(mem)
	if err != nil {
		t.Fatal(err)
	}
	follow(t, fresh, r)
	_, _, memo := snapshotOf(t, r)
	for name, replica := range map[string]*Repo{"following": rep, "bootstrapped": fresh} {
		if _, _, got := snapshotOf(t, replica); !slices.Equal(got, memo) {
			t.Errorf("%s replica: memo of %d pairs, want the primary's %d", name, len(got), len(memo))
		}
	}
}

// revealedCount counts the pairs revealed at hops among r's versions, and
// those among them whose later end is at or past from.
func revealedCount(r *Repo, hops, from int) (all, touching int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, us := range revealPairs(r.meta.Versions, len(r.meta.Versions), hops) {
		for _, u := range us {
			all++
			if u >= from {
				touching++
			}
		}
	}
	return all, touching
}

// TestOptimizeSizesOnlyNewPairs is the proportional-work property of the
// pair-size memo: a canceled Optimize installs none of what it sized, the
// first Optimize sizes every revealed pair, a second one with no commits
// in between sizes none (so LineDiffs builds no LineTable), and after k
// commits an Optimize sizes exactly the revealed pairs that touch the k
// new versions.
func TestOptimizeSizesOnlyNewPairs(t *testing.T) {
	r, err := InitBackend(store.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	h := newHistory(t, 5)
	h.step(r, 30, true)
	optimize := func() int64 {
		t.Helper()
		before := r.pairsSized.Load()
		if _, err := r.Optimize(context.Background(), OptimizeOptions{Request: solve.Request{Solver: "lmg"}}); err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		return r.pairsSized.Load() - before
	}
	all, _ := revealedCount(r, 5, 0)
	// An Optimize canceled after its diff phase installs nothing it sized.
	ctx, cancel := context.WithCancel(context.Background())
	_, err = r.Optimize(ctx, OptimizeOptions{
		Request: solve.Request{Solver: "lmg"},
		Progress: func(phase string) {
			if phase == "solve" {
				cancel()
			}
		},
	})
	if !errors.Is(err, solve.ErrCanceled) || r.pairsSized.Load() != int64(all) || len(r.pairs) != 0 {
		t.Fatalf("Optimize canceled after its diff: err %v, %d pairs sized, memo of %d; want ErrCanceled, %d sized, none installed",
			err, r.pairsSized.Load(), len(r.pairs), all)
	}
	if got := optimize(); got != int64(all) || all == 0 {
		t.Fatalf("first Optimize sized %d pairs, want all %d revealed", got, all)
	}
	if got := optimize(); got != 0 {
		t.Fatalf("second Optimize with no commits sized %d pairs, want 0", got)
	}
	for _, k := range []int{1, 3, 8} {
		n := r.NumVersions()
		h.step(r, k, false) // leaves only: no new path between old versions
		_, touching := revealedCount(r, 5, n)
		if got := optimize(); got != int64(touching) {
			t.Fatalf("after %d commits: Optimize sized %d pairs, want the %d touching the new versions", r.NumVersions()-n, got, touching)
		}
		checkMemo(t, r, 5)
	}
}

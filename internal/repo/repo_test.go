package repo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"versiondb/internal/dataset"
	"versiondb/internal/solve"
	"versiondb/internal/store"
)

func newRepo(t *testing.T) *Repo {
	t.Helper()
	r, err := Init(t.TempDir())
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	return r
}

func csvPayload(t testing.TB, rng *rand.Rand, rows int) []byte {
	t.Helper()
	tb := dataset.Random(rng, rows, 4)
	b, err := tb.EncodeCSV()
	if err != nil {
		t.Fatalf("EncodeCSV: %v", err)
	}
	return b
}

func TestInitTwiceFails(t *testing.T) {
	dir := t.TempDir()
	if _, err := Init(dir); err != nil {
		t.Fatalf("Init: %v", err)
	}
	if _, err := Init(dir); err == nil {
		t.Errorf("double Init succeeded")
	}
}

func TestCommitCheckoutRoundTrip(t *testing.T) {
	r := newRepo(t)
	rng := rand.New(rand.NewSource(1))
	var want [][]byte
	for i := 0; i < 8; i++ {
		p := csvPayload(t, rng, 40+i)
		id, err := r.Commit(DefaultBranch, p, fmt.Sprintf("commit %d", i))
		if err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
		if id != i {
			t.Fatalf("commit id %d, want %d", id, i)
		}
		want = append(want, p)
	}
	for v, p := range want {
		got, err := r.Checkout(v)
		if err != nil {
			t.Fatalf("Checkout(%d): %v", v, err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("Checkout(%d) mismatch", v)
		}
	}
	if _, err := r.Checkout(99); err == nil {
		t.Errorf("Checkout out of range succeeded")
	}
}

func TestCommitToUnknownBranchFails(t *testing.T) {
	r := newRepo(t)
	rng := rand.New(rand.NewSource(2))
	if _, err := r.Commit(DefaultBranch, csvPayload(t, rng, 10), "root"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if _, err := r.Commit("nonexistent", csvPayload(t, rng, 10), "x"); err == nil {
		t.Errorf("commit to unknown branch succeeded")
	}
}

func TestBranchAndMerge(t *testing.T) {
	r := newRepo(t)
	rng := rand.New(rand.NewSource(3))
	root, err := r.Commit(DefaultBranch, csvPayload(t, rng, 30), "root")
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := r.Branch("feature", root); err != nil {
		t.Fatalf("Branch: %v", err)
	}
	if err := r.Branch("feature", root); err == nil {
		t.Errorf("duplicate branch created")
	}
	if err := r.Branch("bad", 42); err == nil {
		t.Errorf("branch at missing version created")
	}
	f1, err := r.Commit("feature", csvPayload(t, rng, 32), "feature work")
	if err != nil {
		t.Fatalf("Commit feature: %v", err)
	}
	m1, err := r.Commit(DefaultBranch, csvPayload(t, rng, 31), "master work")
	if err != nil {
		t.Fatalf("Commit master: %v", err)
	}
	// User-performed merge of feature into master.
	merged, err := r.Merge(DefaultBranch, f1, csvPayload(t, rng, 33), "merge feature")
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	log := r.Log()
	mi := log[merged]
	if len(mi.Parents) != 2 || mi.Parents[0] != m1 || mi.Parents[1] != f1 {
		t.Errorf("merge parents = %v, want [%d %d]", mi.Parents, m1, f1)
	}
	if tip, _ := r.Tip(DefaultBranch); tip != merged {
		t.Errorf("master tip = %d, want %d", tip, merged)
	}
	// Error paths.
	if _, err := r.Merge("nope", f1, nil, ""); err == nil {
		t.Errorf("merge into unknown branch succeeded")
	}
	if _, err := r.Merge(DefaultBranch, 999, nil, ""); err == nil {
		t.Errorf("merge of missing version succeeded")
	}
	if _, err := r.Merge(DefaultBranch, merged, nil, ""); err == nil {
		t.Errorf("merge of branch tip into itself succeeded")
	}
}

func TestBranchesSorted(t *testing.T) {
	r := newRepo(t)
	rng := rand.New(rand.NewSource(4))
	root, _ := r.Commit(DefaultBranch, csvPayload(t, rng, 10), "root")
	_ = r.Branch("zeta", root)
	_ = r.Branch("alpha", root)
	got := r.Branches()
	if len(got) != 3 || got[0] != "alpha" || got[1] != DefaultBranch || got[2] != "zeta" {
		t.Errorf("Branches = %v", got)
	}
	if _, err := r.Tip("zeta"); err != nil {
		t.Errorf("Tip(zeta): %v", err)
	}
	if _, err := r.Tip("missing"); err == nil {
		t.Errorf("Tip on missing branch succeeded")
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	var want [][]byte
	{
		r, err := Init(dir)
		if err != nil {
			t.Fatalf("Init: %v", err)
		}
		for i := 0; i < 5; i++ {
			p := csvPayload(t, rng, 20+i)
			if _, err := r.Commit(DefaultBranch, p, "c"); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			want = append(want, p)
		}
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if r.NumVersions() != 5 {
		t.Fatalf("NumVersions = %d", r.NumVersions())
	}
	for v, p := range want {
		got, err := r.Checkout(v)
		if err != nil || !bytes.Equal(got, p) {
			t.Errorf("Checkout(%d) after reopen failed: %v", v, err)
		}
	}
}

// A message or branch name that is not valid UTF-8 reads the same before
// and after a reopen: the metadata log stores it as JSON, which replaces
// each invalid byte with U+FFFD, so the live repository must too.
func TestNonUTF8MetadataSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	r, err := Init(dir)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	const bad, branch = "bad \xff msg", "b\xff"
	root, err := r.Commit(DefaultBranch, csvPayload(t, rng, 10), bad)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := r.Branch(branch, root); err != nil {
		t.Fatalf("Branch: %v", err)
	}
	side, err := r.Commit(branch, csvPayload(t, rng, 11), "side \xfe")
	if err != nil {
		t.Fatalf("Commit to %q: %v", branch, err)
	}
	if _, err := r.Commit(DefaultBranch, csvPayload(t, rng, 12), "main"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if _, err := r.Merge(DefaultBranch, side, csvPayload(t, rng, 13), "merge \xc3"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if err := r.Branch(branch, root); !errors.Is(err, ErrBranchExists) {
		t.Errorf("Branch(%q) again: %v, want ErrBranchExists", branch, err)
	}
	if got := r.Log()[0].Message; got != "bad \ufffd msg" {
		t.Errorf("live message = %q, want %q", got, "bad \ufffd msg")
	}
	type view struct {
		log      string
		branches []string
		tip      int
	}
	snapshot := func(r *Repo) view {
		t.Helper()
		tip, err := r.Tip(branch)
		if err != nil {
			t.Fatalf("Tip(%q): %v", branch, err)
		}
		log := r.Log()
		for i := range log {
			log[i].Time = log[i].Time.UTC()
		}
		return view{fmt.Sprintf("%+v", log), r.Branches(), tip}
	}
	before := snapshot(r)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r2.Close()
	if after := snapshot(r2); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("reopen changed the metadata:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestOpenMissingRepo opens three directories that hold no repository, an
// empty one, a missing path and one with only a pre-metalog meta.json, and
// checks that Open refuses each with the error OpenBackend gives and
// creates nothing, not even the missing path.
func TestOpenMissingRepo(t *testing.T) {
	const preMetalog = "repo: open: pre-metalog repository (meta.json, no metadata log): migrate it with an older build"
	cases := []struct {
		name    string
		setup   func(t *testing.T, root string) string // returns the directory to open
		wantErr func(err error) bool
	}{
		{"empty", func(t *testing.T, root string) string { return root }, isNoRepository},
		{"missing", func(t *testing.T, root string) string { return filepath.Join(root, "nosuchdir", "sub") }, isNoRepository},
		{"meta.json only", func(t *testing.T, root string) string {
			if err := os.WriteFile(filepath.Join(root, "meta.json"), []byte(`{"versions":[],"branches":{}}`), 0o644); err != nil {
				t.Fatal(err)
			}
			return root
		}, func(err error) bool { return err != nil && err.Error() == preMetalog }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			dir := c.setup(t, root)
			before := listTree(t, root)
			if _, err := Open(dir); !c.wantErr(err) {
				t.Errorf("Open(%s): err = %v", c.name, err)
			}
			if after := listTree(t, root); !slices.Equal(after, before) {
				t.Errorf("Open(%s) changed the tree: before %q, after %q", c.name, before, after)
			}
		})
	}
}

func isNoRepository(err error) bool {
	return errors.Is(err, fs.ErrNotExist) && strings.HasPrefix(err.Error(), "repo: open: no repository: ")
}

// listTree returns every path under root, relative to it.
func listTree(t *testing.T, root string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(root, func(p string, _ fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		paths = append(paths, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestMemBackendRoundTrip(t *testing.T) {
	b := store.NewMemStore()
	r, err := InitBackend(b)
	if err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	if _, err := InitBackend(b); err == nil {
		t.Errorf("double InitBackend on same backend succeeded")
	}
	rng := rand.New(rand.NewSource(8))
	var want [][]byte
	for i := 0; i < 4; i++ {
		p := csvPayload(t, rng, 20+i)
		if _, err := r.Commit(DefaultBranch, p, "c"); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		want = append(want, p)
	}
	// Reopen from the same backend, as a serving process would after
	// handing the store over.
	r2, err := OpenBackend(b)
	if err != nil {
		t.Fatalf("OpenBackend: %v", err)
	}
	for v, p := range want {
		got, err := r2.Checkout(v)
		if err != nil || !bytes.Equal(got, p) {
			t.Errorf("Checkout(%d) after reopen failed: %v", v, err)
		}
	}
	if _, err := r2.Repack(); err == nil {
		t.Errorf("Repack on in-memory backend succeeded")
	}
}

func TestSentinelErrors(t *testing.T) {
	r := newRepo(t)
	rng := rand.New(rand.NewSource(9))
	if _, err := r.Commit(DefaultBranch, csvPayload(t, rng, 10), "root"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Checkout(5); !errors.Is(err, ErrUnknownVersion) {
		t.Errorf("Checkout(5) err = %v, want ErrUnknownVersion", err)
	}
	if _, err := r.Commit("ghost", nil, "m"); !errors.Is(err, ErrUnknownBranch) {
		t.Errorf("Commit(ghost) err = %v, want ErrUnknownBranch", err)
	}
	if _, err := r.Tip("ghost"); !errors.Is(err, ErrUnknownBranch) {
		t.Errorf("Tip(ghost) err = %v, want ErrUnknownBranch", err)
	}
	if err := r.Branch("b", 7); !errors.Is(err, ErrUnknownVersion) {
		t.Errorf("Branch from missing err = %v, want ErrUnknownVersion", err)
	}
	if err := r.Branch("b", 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Branch("b", 0); !errors.Is(err, ErrBranchExists) {
		t.Errorf("duplicate Branch err = %v, want ErrBranchExists", err)
	}
	if _, err := r.Merge("b", 9, nil, "m"); !errors.Is(err, ErrUnknownVersion) {
		t.Errorf("Merge of missing err = %v, want ErrUnknownVersion", err)
	}
	if _, err := r.Merge("b", 0, nil, "m"); !errors.Is(err, ErrInvalidMerge) {
		t.Errorf("Merge of own tip err = %v, want ErrInvalidMerge", err)
	}
	empty := newRepo(t)
	if _, err := empty.Optimize(context.Background(), OptimizeOptions{}); !errors.Is(err, ErrEmptyRepo) {
		t.Errorf("Optimize on empty err = %v, want ErrEmptyRepo", err)
	}
}

func TestCacheSurvivesOptimize(t *testing.T) {
	r, payloads := buildBranchyRepo(t, 7)
	r.EnableCache(16)
	last := len(payloads) - 1
	if _, err := r.Checkout(last); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Checkout(last); err != nil {
		t.Fatal(err)
	}
	if r.CacheMetrics().Hits == 0 {
		t.Fatalf("no cache hit before optimize")
	}
	if _, err := r.Optimize(context.Background(), OptimizeOptions{RevealHops: 4}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	// The rebuilt layout keeps the cache, so checkouts after the swap hit
	// it, and content stays intact.
	preHits := r.CacheMetrics().Hits
	for i := 0; i < 2; i++ {
		got, err := r.Checkout(last)
		if err != nil || !bytes.Equal(got, payloads[last]) {
			t.Fatalf("Checkout after optimize: %v", err)
		}
	}
	if hits := r.CacheMetrics().Hits; hits <= preHits {
		t.Errorf("cache disabled after optimize: hits %d → %d", preHits, hits)
	}
}

// buildBranchyRepo commits a root, two diverging branches, and a merge.
func buildBranchyRepo(t *testing.T, seedOffset int64) (*Repo, [][]byte) {
	r := newRepo(t)
	rng := rand.New(rand.NewSource(6 + seedOffset))
	base := dataset.Random(rng, 60, 5)
	var payloads [][]byte
	commit := func(branch string, tb *dataset.Table, msg string) *dataset.Table {
		b, err := tb.EncodeCSV()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Commit(branch, b, msg); err != nil {
			t.Fatalf("Commit(%s): %v", branch, err)
		}
		payloads = append(payloads, b)
		return tb
	}
	evolve := func(tb *dataset.Table) *dataset.Table {
		s := dataset.RandomScript(rng, tb.NumRows(), tb.NumCols(), 2)
		out, err := s.Apply(tb)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cur := commit(DefaultBranch, base, "root")
	if err := r.Branch("side", 0); err != nil {
		t.Fatal(err)
	}
	side := cur
	for i := 0; i < 3; i++ {
		cur = commit(DefaultBranch, evolve(cur), "main")
		side = commit("side", evolve(side), "side")
	}
	tip, _ := r.Tip("side")
	mergedTable := evolve(cur)
	b, _ := mergedTable.EncodeCSV()
	if _, err := r.Merge(DefaultBranch, tip, b, "merge side"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	payloads = append(payloads, b)
	return r, payloads
}

// TestOptimizeObjectivesPreserveContent runs one solver per paper
// objective; an unnamed solver must default to "mst".
func TestOptimizeObjectivesPreserveContent(t *testing.T) {
	objectives := []struct {
		name   string
		opts   OptimizeOptions
		solver string
	}{
		{"min-storage", OptimizeOptions{RevealHops: 4}, "mst"},
		{"sum-recreation", OptimizeOptions{Request: solve.Request{Solver: "lmg"}, BudgetFactor: 1.3, RevealHops: 4}, "lmg"},
		{"max-recreation", OptimizeOptions{Request: solve.Request{Solver: "mp"}, RevealHops: 4}, "mp"},
		{"compressed", OptimizeOptions{RevealHops: 4, Compress: true}, "mst"},
	}
	for i, tc := range objectives {
		t.Run(tc.name, func(t *testing.T) {
			r, payloads := buildBranchyRepo(t, int64(i))
			sol, err := r.Optimize(context.Background(), tc.opts)
			if err != nil {
				t.Fatalf("Optimize: %v", err)
			}
			if sol.Solver != tc.solver {
				t.Errorf("solver = %q, want %q", sol.Solver, tc.solver)
			}
			if sol.Storage <= 0 {
				t.Errorf("solution storage %g", sol.Storage)
			}
			for v, p := range payloads {
				got, err := r.Checkout(v)
				if err != nil {
					t.Fatalf("Checkout(%d): %v", v, err)
				}
				if !bytes.Equal(got, p) {
					t.Errorf("version %d corrupted by optimize", v)
				}
			}
		})
	}
}

func TestOptimizeReducesStorage(t *testing.T) {
	r, payloads := buildBranchyRepo(t, 99)
	var logical int64
	for _, p := range payloads {
		logical += int64(len(p))
	}
	if _, err := r.Optimize(context.Background(), OptimizeOptions{RevealHops: 6}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	st := r.Stats()
	if st.StoredBytes >= logical {
		t.Errorf("optimized storage %d not below logical %d", st.StoredBytes, logical)
	}
	if st.Materialized < 1 {
		t.Errorf("no materialized versions")
	}
	if st.Versions != len(payloads) {
		t.Errorf("stats versions %d, want %d", st.Versions, len(payloads))
	}
}

func TestOptimizeEmptyRepo(t *testing.T) {
	r := newRepo(t)
	if _, err := r.Optimize(context.Background(), OptimizeOptions{}); err == nil {
		t.Errorf("Optimize on empty repo succeeded")
	}
}

// TestOptimizeUnknownSolver pins the normalized sentinel: a bogus registry
// name surfaces solve.ErrUnknownSolver, which the HTTP layer maps to 400.
func TestOptimizeUnknownSolver(t *testing.T) {
	r := newRepo(t)
	rng := rand.New(rand.NewSource(5))
	if _, err := r.Commit(DefaultBranch, csvPayload(t, rng, 30), "v0"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	ctx := context.Background()
	if _, err := r.Optimize(ctx, OptimizeOptions{Request: solve.Request{Solver: "simplex"}}); !errors.Is(err, solve.ErrUnknownSolver) {
		t.Errorf("bogus solver err = %v, want solve.ErrUnknownSolver", err)
	}
}

// TestOptimizeBySolverName drives Optimize through the remaining registry
// names, and checks content survives.
func TestOptimizeBySolverName(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, name := range []string{"p4", "p5", "last", "gith", "spt"} {
		t.Run(name, func(t *testing.T) {
			r := newRepo(t)
			var payloads [][]byte
			for i := 0; i < 6; i++ {
				p := csvPayload(t, rng, 40+i)
				payloads = append(payloads, p)
				if _, err := r.Commit(DefaultBranch, p, fmt.Sprintf("v%d", i)); err != nil {
					t.Fatalf("Commit: %v", err)
				}
			}
			sol, err := r.Optimize(context.Background(), OptimizeOptions{
				Request:    solve.Request{Solver: name},
				RevealHops: 4,
			})
			if err != nil {
				t.Fatalf("Optimize(%s): %v", name, err)
			}
			if sol == nil || sol.Tree == nil {
				t.Fatalf("Optimize(%s): nil solution", name)
			}
			for v, want := range payloads {
				got, err := r.Checkout(v)
				if err != nil {
					t.Fatalf("Checkout(%d): %v", v, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("version %d corrupted by optimize with %s", v, name)
				}
			}
		})
	}
}

// TestOptimizeCanceled verifies a pre-canceled context aborts the solve
// with solve.ErrCanceled and leaves the layout serving correct bytes.
func TestOptimizeCanceled(t *testing.T) {
	r := newRepo(t)
	rng := rand.New(rand.NewSource(7))
	want := csvPayload(t, rng, 50)
	if _, err := r.Commit(DefaultBranch, want, "v0"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Optimize(ctx, OptimizeOptions{Request: solve.Request{Solver: "lmg"}}); !errors.Is(err, solve.ErrCanceled) {
		t.Errorf("canceled Optimize err = %v, want solve.ErrCanceled", err)
	}
	got, err := r.Checkout(0)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("layout damaged by canceled optimize: %v", err)
	}
}

func TestStatsOnFreshRepo(t *testing.T) {
	r := newRepo(t)
	st := r.Stats()
	if st.Versions != 0 || st.StoredBytes != 0 {
		t.Errorf("fresh stats = %+v", st)
	}
}
